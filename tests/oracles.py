"""Scalar oracles for the likelihood scan, the exact matrices it is tested
on, and a reference BER sampler.

Each scan oracle computes one candidate n0 straight from the pilot matrix,
with no prefix sums, so that the tests can check the library's batched
profile (``estimate_sto(y).s1/s2/loglik``) against an independent
implementation.  ``payload_frames`` is the harness's BER sampler in its
earlier form, with its windows gathered by ``np.take_along_axis`` from a
concatenated energy array; it draws the same variates in the same order,
so the tests hold the harness's sampler to it exactly.
"""

import math

import numpy as np

from ambcsync import DegenerateSegmentError
from ambcsync.detector import _decide, ed_threshold
from ambcsync.estimator import scan_sto
from ambcsync.harness import _pilot_sums


def variance_estimates(y, n0: int) -> tuple[float, float]:
    """ML variance estimates for the two segments split after column n0.

    Segment 1 is columns [1..n0], segment 2 is [n0+1..N_p] (1-indexed).
    """
    y = np.asarray(y)
    rows, cols = y.shape
    if not 1 <= n0 <= cols - 1:
        raise ValueError(f"n0 must be in [1, {cols - 1}], got {n0}")
    if not np.all(np.isfinite(y)):
        raise ValueError("pilot matrix contains non-finite entries")
    power = y.real**2 + y.imag**2
    s1 = float(power[:, :n0].sum()) / (rows * n0)
    s2 = float(power[:, n0:].sum()) / (rows * (cols - n0))
    return s1, s2


def log_likelihood_reduced(y, n0: int) -> float:
    """Profile log-likelihood at candidate n0 (constant terms dropped)."""
    rows, cols = np.shape(y)
    s1, s2 = variance_estimates(y, n0)
    if s1 <= 0.0 or s2 <= 0.0:
        raise DegenerateSegmentError(f"zero-power segment at n0={n0} (s1={s1}, s2={s2})")
    return float(-n0 * rows * np.log(s1) - (cols - n0) * rows * np.log(s2))


def full_log_likelihood(y, n0):
    """Complete two-segment Gaussian log-likelihood with plug-in variances."""
    rows, cols = y.shape
    s1, s2 = variance_estimates(y, n0)
    power = y.real**2 + y.imag**2
    head, tail = power[:, :n0].sum(), power[:, n0:].sum()
    return (
        -n0 * rows * math.log(s1)
        - head / s1
        - (cols - n0) * rows * math.log(s2)
        - tail / s2
    )


def exact_two_segment(rng, rows, cols, split, v1, v2):
    """Matrix whose per-sample magnitudes are exactly sqrt(v1) then sqrt(v2)."""
    mags = np.concatenate([np.full(split, math.sqrt(v1)), np.full(cols - split, math.sqrt(v2))])
    return mags * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(rows, cols)))


def payload_frames(rng, frame, tau, p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """Draw one cell's frames of a batch, with payload, through their window
    energies and decide them (see the ``harness`` module docstring).

    Returns each trial's offset estimate, shape (n,), and its payload bit
    errors under ideal sync, no compensation and the estimated compensation,
    shape (n, 3).
    """
    n = tau.size
    pairs, span = frame.pilot_pairs, frame.pilot_bit_samples
    k, width = frame.data_symbols, frame.data_symbol_samples
    payload = rng.integers(0, 2, size=(n, k))

    # pilot rows 0..L-2 as column sums; the last pilot pair and payload bit 0
    # sample by sample, positions -2 N_p .. N - 1 from the payload's start
    sums = _pilot_sums(rng, [pairs - 1], [0, n], tau, span, p0, p1)
    near = rng.standard_exponential((n, 2 * span + width))
    near[:, :span] *= p0
    near[:, span : 2 * span] *= p1
    near[:, 2 * span :] *= np.where(payload[:, :1] == 1, p1, p0)
    # row L-1 reads positions tau + j - N_p: the pilot "0", its "1" or bit 0
    sums += np.take_along_axis(near, span + tau[:, None] + np.arange(span), axis=1)
    tau_hat = scan_sto(sums)

    # bits 1..K-1 and the guard bit are cut where the offset (tau) and the
    # compensated (tau - tau_hat) clocks cross them: three segments each
    cuts = np.sort(np.stack([tau, tau - tau_hat], axis=1) % width, axis=1)
    lengths = np.diff(cuts, prepend=0, append=width)[:, None, :]
    later = np.concatenate([payload[:, 1:], np.zeros((n, 1), dtype=payload.dtype)], axis=1)
    segments = rng.standard_gamma(lengths, size=(n, k, 3))
    segments *= np.where(later == 1, p1, p0)[:, :, None]

    # energy[i, m]: the energy of trial i from position -2 N_p up to its m-th
    # sample (m <= 2 N_p + N), then up to each later cut; every window is the
    # difference of the energies at its two ends
    energy = np.concatenate([np.zeros((n, 1)), near, segments.reshape(n, 3 * k)], axis=1)
    np.cumsum(energy, axis=1, out=energy)
    del near, segments  # the window step below sets the batch's peak memory

    def windows(clock):
        # a clock crosses every later bit at the same offset: cut 0, 1 or 2
        whole, offset = np.divmod(clock, width)
        cut = np.where(offset == 0, 0, np.where(offset == cuts[:, 0], 1, 2))
        ends = clock[:, None] + width * np.arange(k + 1)
        beyond = (width + 3 * (whole - 1) + cut)[:, None] + 3 * np.arange(k + 1)
        index = np.where(ends <= width, ends, beyond) + 2 * span
        return np.diff(np.take_along_axis(energy, index, axis=1), axis=1)

    threshold = ed_threshold(width, p0, p1)
    bit_errors = [
        (_decide(windows(clock), threshold, p0, p1) != payload).sum(axis=1)
        for clock in (np.zeros_like(tau), tau, tau - tau_hat)
    ]
    return tau_hat, np.stack(bit_errors, axis=1)
