"""Per-symbol energy detection after timing compensation.

After the pilot-based offset estimate, the receiver realigns its symbol
clock (``frame.compensate``) and decides each payload bit by comparing the
window energy against a closed-form threshold that sits between the two
hypothesis means N*p0 and N*p1.  When the reflecting state happens to
receive *less* power than the absorbing one (p0 > p1) the comparison flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import FrameConfig, Waveform, compensate


class DegenerateChannelError(ValueError):
    """p0 == p1: the two bit hypotheses are indistinguishable by energy."""


@dataclass(frozen=True)
class DetectorParams:
    """Per-coherence-block detection parameters."""

    n_samples: int
    p0: float
    p1: float
    threshold: float

    @classmethod
    def from_powers(cls, n_samples: int, p0: float, p1: float) -> "DetectorParams":
        return cls(
            n_samples=n_samples, p0=p0, p1=p1, threshold=ed_threshold(n_samples, p0, p1)
        )


def ed_threshold(n_samples: int, p0: float, p1: float) -> float:
    """Closed-form energy-detection threshold for window size N and powers p0, p1.

        T = (N p0 p1 / (p0 + p1)) * [1 + sqrt(1 + 2 (p0 + p1) ln(p1/p0) / (N (p1 - p0)))]

    The log-over-difference factor is evaluated via log1p to stay accurate
    for power ratios near 1.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if p0 <= 0.0 or p1 <= 0.0:
        raise ValueError(f"powers must be positive, got p0={p0}, p1={p1}")
    if p0 == p1:
        raise DegenerateChannelError(
            f"p0 == p1 == {p0}: energy detection threshold undefined"
        )
    # ln(p1/p0)/(p1-p0), cancellation-free form
    log_over_diff = math.log1p((p1 - p0) / p0) / (p1 - p0)
    radicand = 1.0 + 2.0 * (p0 + p1) * log_over_diff / n_samples
    return (n_samples * p0 * p1 / (p0 + p1)) * (1.0 + math.sqrt(radicand))


def detect_frame(
    w: Waveform, cfg: FrameConfig, params: DetectorParams, tau_hat: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compensate the clock by ``tau_hat``, then decide every payload symbol.

    Returns ``(bits, energies)``: the int64 decided bits and each window's
    energy sum |y|^2.  Energy at or above the threshold reads as bit 1 when
    p1 >= p0; for p0 > p1 the orientation flips, so the boundary
    energy == threshold goes to bit 1 or bit 0 respectively.
    """
    wc = compensate(w, tau_hat)
    n = cfg.data_symbol_samples
    k = cfg.data_symbols
    region = wc.samples[wc.data_start : wc.data_start + k * n]
    energies = (region.real**2 + region.imag**2).reshape(k, n).sum(axis=1)
    above = energies >= params.threshold
    bits = above if params.p1 >= params.p0 else ~above
    return bits.astype(np.int64), energies
