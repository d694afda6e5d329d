"""Maximum-likelihood symbol-timing-offset estimation from the pilot matrix.

The receiver stacks L pilot sampling windows, nominally aligned to the "1"
bit of each pilot pair, into an L x N_p matrix.  Under a timing offset the
per-sample variance switches from one value to another at an unknown
transition column n0.  Scanning n0 over {2..N_p-1} with plug-in variance
estimates gives the profile log-likelihood

    -n0 L log(s1_hat) - (N_p - n0) L log(s2_hat)

whose argmax locates the transition (Hinkley's change-point profile,
Biometrika 1970); the sign of the offset follows from which half of the
window the transition falls in.  The likelihood reads the matrix only
through its N_p column power sums, so the scan (``scan_sto``) takes those
sums, for one matrix or for a batch of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Waveform


class DegenerateSegmentError(ValueError):
    """A candidate segment has zero empirical power (harness bug, not noise)."""


@dataclass(frozen=True)
class StoEstimate:
    """Estimated transition column, its mapped signed offset, and the scan's
    profile: ``s1``, ``s2`` and ``loglik`` hold the two segment variances and
    the log-likelihood at each candidate n0 = 2..N_p-1, indexed by n0 - 2."""

    n0_hat: int
    tau_hat: int
    s1: np.ndarray
    s2: np.ndarray
    loglik: np.ndarray


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


def _profile(col_sums: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plug-in segment variances s1, s2 and the profile log-likelihood at
    n0 = 2..N_p-1 for column power sums of shape (..., N_p); each result has
    shape (..., N_p - 2), its last axis indexed by n0 - 2.

    Segment 1 is columns [1..n0], segment 2 is [n0+1..N_p] (1-indexed).
    """
    sums = np.asarray(col_sums, dtype=float)
    cols = sums.shape[-1]
    prefix = np.cumsum(sums, axis=-1)
    candidates = np.arange(2, cols)
    head = prefix[..., 1:-1]
    s1 = head / (rows * candidates)
    s2 = (prefix[..., -1:] - head) / (rows * (cols - candidates))
    bad = (s1 <= 0.0) | (s2 <= 0.0)
    if bad.any():
        raise DegenerateSegmentError(f"zero-power segment at n0={2 + np.nonzero(bad)[-1].min()}")
    loglik = -candidates * rows * np.log(s1) - (cols - candidates) * rows * np.log(s2)
    return s1, s2, loglik


def _offset(n0_hat, cols: int):
    """n0_hat < N_p/2 reads as an advanced clock (tau_hat = -n0_hat),
    otherwise as a delayed one (tau_hat = N_p - n0_hat)."""
    return np.where(n0_hat < cols / 2, -n0_hat, cols - n0_hat)


def scan_sto(col_sums: np.ndarray, rows: int) -> np.ndarray:
    """Scan n0 over {2..N_p-1} for each pilot matrix given by its column power sums.

    ``col_sums`` has shape (..., N_p): entry j is the summed power of column
    j over the matrix's ``rows`` rows, which is all the profile likelihood
    reads.  Returns the signed offset estimates, shape (...).  Ties resolve
    to the smallest candidate.
    """
    _, _, loglik = _profile(col_sums, rows)
    n0_hat = 2 + np.argmax(loglik, axis=-1)  # first maximum: smallest-n0 tie-break
    return _offset(n0_hat, np.shape(col_sums)[-1])


def estimate_sto(y: np.ndarray) -> StoEstimate:
    """Estimate the offset from one pilot matrix, the scan of its column sums."""
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError(f"pilot matrix must be 2-D, got shape {y.shape}")
    rows, cols = y.shape
    if rows < 1 or cols < 4:
        raise ValueError(f"pilot matrix must be at least 1 x 4, got {rows} x {cols}")
    if not np.all(np.isfinite(y)):
        raise ValueError("pilot matrix contains non-finite entries")
    s1, s2, loglik = _profile((y.real**2 + y.imag**2).sum(axis=0), rows)
    n0_hat = 2 + int(np.argmax(loglik))
    return StoEstimate(n0_hat, int(_offset(n0_hat, cols)), s1, s2, loglik)
