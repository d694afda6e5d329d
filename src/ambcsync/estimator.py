"""Maximum-likelihood symbol-timing-offset estimation from the pilot matrix.

The receiver stacks L pilot sampling windows, nominally aligned to the "1"
bit of each pilot pair, into an L x N_p matrix.  Under a timing offset the
per-sample variance switches from one value to another at an unknown
transition column n0.  Scanning n0 over {2..N_p-1} with plug-in variance
estimates gives the profile log-likelihood

    -n0 L log(s1_hat) - (N_p - n0) L log(s2_hat)

whose argmax locates the transition; the sign of the offset follows from
which half of the window the transition falls in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Waveform


class DegenerateSegmentError(ValueError):
    """A candidate segment has zero empirical power (harness bug, not noise)."""


@dataclass(frozen=True)
class LikelihoodTrace:
    """Per-candidate transition scan: variance MLEs and profile log-likelihood."""

    candidates: np.ndarray
    sigma1_sq: np.ndarray
    sigma2_sq: np.ndarray
    log_likelihood: np.ndarray


@dataclass(frozen=True)
class StoEstimate:
    """Estimated transition column, mapped signed offset, and the full scan."""

    n0_hat: int
    tau_hat: int
    trace: LikelihoodTrace


def _validate_matrix(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError(f"pilot matrix must be 2-D, got shape {y.shape}")
    rows, cols = y.shape
    if rows < 1 or cols < 4:
        raise ValueError(f"pilot matrix must be at least 1 x 4, got {rows} x {cols}")
    if not np.all(np.isfinite(y)):
        raise ValueError("pilot matrix contains non-finite entries")
    return y


def collect_windows(w: Waveform) -> np.ndarray:
    """Stack the L pilot windows of ``w.config`` into an (L, N_p) complex matrix.

    Row l covers the window nominally aligned to the l-th pilot "1" bit
    under the receiver's clock: start = pilot_start + (2l-1) N_p, so the
    collected windows are spaced 2 N_p apart.
    """
    cfg = w.config
    n_p = cfg.pilot_bit_samples
    length = 2 * cfg.pilot_pairs * n_p
    start = w.pilot_start
    if start < 0 or start + length > w.samples.size:
        raise ValueError(
            f"pilot region [{start}, {start + length}) outside waveform "
            f"of {w.samples.size} samples"
        )
    region = w.samples[start : start + length]
    return region.reshape(cfg.pilot_pairs, 2 * n_p)[:, n_p:]


def variance_estimates(y: np.ndarray, n0: int) -> tuple[float, float]:
    """ML variance estimates for the two segments split after column n0.

    Segment 1 is columns [1..n0], segment 2 is [n0+1..N_p] (1-indexed).
    """
    y = _validate_matrix(y)
    rows, cols = y.shape
    if not 1 <= n0 <= cols - 1:
        raise ValueError(f"n0 must be in [1, {cols - 1}], got {n0}")
    power = y.real**2 + y.imag**2
    s1 = float(power[:, :n0].sum()) / (rows * n0)
    s2 = float(power[:, n0:].sum()) / (rows * (cols - n0))
    return s1, s2


def log_likelihood_reduced(y: np.ndarray, n0: int) -> float:
    """Profile log-likelihood at candidate n0 (constant terms dropped)."""
    y = _validate_matrix(y)
    rows, cols = y.shape
    s1, s2 = variance_estimates(y, n0)
    if s1 <= 0.0 or s2 <= 0.0:
        raise DegenerateSegmentError(
            f"zero-power segment at n0={n0} (s1={s1}, s2={s2})"
        )
    return float(-n0 * rows * np.log(s1) - (cols - n0) * rows * np.log(s2))


def estimate_sto(y: np.ndarray) -> StoEstimate:
    """Scan n0 over {2..N_p-1}, pick the likelihood argmax, map to a signed offset.

    Ties resolve to the smallest candidate.  The offset mapping follows the
    placement of the transition: n0_hat < N_p/2 reads as an advanced clock
    (tau_hat = -n0_hat), otherwise as a delayed one (tau_hat = N_p - n0_hat).
    """
    y = _validate_matrix(y)
    rows, cols = y.shape
    power = y.real**2 + y.imag**2
    col_sums = power.sum(axis=0)
    prefix = np.cumsum(col_sums)
    total = prefix[-1]

    candidates = np.arange(2, cols)
    head = prefix[candidates - 1]
    s1 = head / (rows * candidates)
    s2 = (total - head) / (rows * (cols - candidates))
    if np.any(s1 <= 0.0) or np.any(s2 <= 0.0):
        bad = candidates[(s1 <= 0.0) | (s2 <= 0.0)][0]
        raise DegenerateSegmentError(f"zero-power segment at n0={bad}")
    loglik = -candidates * rows * np.log(s1) - (cols - candidates) * rows * np.log(s2)

    best = int(np.argmax(loglik))  # first maximum: smallest-n0 tie-break
    n0_hat = int(candidates[best])
    tau_hat = -n0_hat if n0_hat < cols / 2 else cols - n0_hat
    trace = LikelihoodTrace(
        candidates=candidates, sigma1_sq=s1, sigma2_sq=s2, log_likelihood=loglik
    )
    return StoEstimate(n0_hat=n0_hat, tau_hat=tau_hat, trace=trace)
