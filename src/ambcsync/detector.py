"""Per-symbol energy detection after timing compensation.

After the pilot-based offset estimate, the receiver realigns its symbol
clock (``frame.compensate``) and decides each payload bit by comparing the
window energy against a closed-form threshold that sits between the two
hypothesis means N*p0 and N*p1.  When the reflecting state happens to
receive *less* power than the absorbing one (p0 > p1) the comparison flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Waveform, compensate


class DegenerateChannelError(ValueError):
    """p0 == p1: the two bit hypotheses are indistinguishable by energy."""


@dataclass(frozen=True)
class DetectorParams:
    """Per-coherence-block detection parameters; the window size N they were
    built for is the frame's ``data_symbol_samples``."""

    p0: float
    p1: float
    threshold: float

    @classmethod
    def from_powers(cls, n_samples: int, p0: float, p1: float) -> "DetectorParams":
        return cls(p0=p0, p1=p1, threshold=ed_threshold(n_samples, p0, p1))


def ed_threshold(n_samples: int, p0, p1):
    """Closed-form energy-detection threshold for window size N and powers p0, p1.

        T = (N p0 p1 / (p0 + p1)) * [1 + sqrt(1 + 2 (p0 + p1) ln(p1/p0) / (N (p1 - p0)))]

    ``p0`` and ``p1`` are floats, or arrays that broadcast together; the
    result is a float or an array of their broadcast shape.  The
    log-over-difference factor is evaluated via log1p to stay accurate for
    power ratios near 1.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    p0, p1 = np.broadcast_arrays(np.asarray(p0, dtype=float), np.asarray(p1, dtype=float))
    bad = (p0 <= 0.0) | (p1 <= 0.0)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"powers must be positive, got p0={p0.flat[i]}, p1={p1.flat[i]}")
    if (p0 == p1).any():
        i = np.argmax(p0 == p1)
        raise DegenerateChannelError(
            f"p0 == p1 == {p0.flat[i]}: energy detection threshold undefined"
        )
    # ln(p1/p0)/(p1-p0), cancellation-free form
    log_over_diff = np.log1p((p1 - p0) / p0) / (p1 - p0)
    radicand = 1.0 + 2.0 * (p0 + p1) * log_over_diff / n_samples
    threshold = (n_samples * p0 * p1 / (p0 + p1)) * (1.0 + np.sqrt(radicand))
    return float(threshold) if threshold.ndim == 0 else threshold


def _decide(energies, threshold, p0, p1) -> np.ndarray:
    """Decided int64 bits: 1 where the energy reaches the threshold, the
    orientation flipped where p1 < p0; all arguments broadcast together."""
    return ((energies >= threshold) != (p1 < p0)).astype(np.int64)


def detect_frame(
    w: Waveform, params: DetectorParams, tau_hat: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compensate the clock by ``tau_hat``, then decide every payload symbol.

    Returns ``(bits, energies)``: the int64 decided bits and each window's
    energy sum |y|^2.  Energy at or above the threshold reads as bit 1 when
    p1 >= p0; for p0 > p1 the orientation flips, so the boundary
    energy == threshold goes to bit 1 or bit 0 respectively.
    """
    wc = compensate(w, tau_hat)
    n = w.config.data_symbol_samples
    k = w.config.data_symbols
    region = wc.samples[wc.data_start : wc.data_start + k * n]
    energies = (region.real**2 + region.imag**2).reshape(k, n).sum(axis=1)
    return _decide(energies, params.threshold, params.p0, params.p1), energies
