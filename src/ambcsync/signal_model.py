"""Stochastic primitives: ambient source samples, noise, and channel models.

The ambient RF source and thermal noise are i.i.d. circularly-symmetric
complex Gaussian processes.  A frame's channel is described by three
coefficients (direct link h, source-to-device zeta, device-to-receiver g);
the backscatter "on" state sees the composite coefficient mu = h + zeta*g.
Every received sample of a bit B is then a complex Gaussian of power p0
(B = 0) or p1 (B = 1), and ``ChannelState`` keeps only those two powers.
A ``ChannelModel`` says how the coefficients arise (Rayleigh block fading
or one static channel) and how an SNR in dB maps to the noise power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelState:
    """One coherence block's received per-sample powers under the "absorb"
    (``p0``) and "reflect" (``p1``) hypotheses (arrays of n blocks' powers
    from ``draw_channel(rng, noise, n)``)."""

    p0: float
    p1: float

    @classmethod
    def from_coefficients(
        cls, h: complex, zeta: complex, g: complex, noise: float
    ) -> "ChannelState":
        """The received law: a sample of bit B is h*s + zeta*g*B*s + w with
        unit-power source s ~ CN(0, 1) and noise w ~ CN(0, noise), i.e. a
        CN(0, p_B) draw with p_B = |h + zeta*g*B|^2 + noise.  The arguments
        may be arrays that broadcast together, one entry per block."""
        if not np.logical_and(0.0 <= noise, noise < np.inf).all():
            raise ValueError(f"noise power must be finite and >= 0, got {noise}")
        return cls(p0=abs(h) ** 2 + noise, p1=abs(h + zeta * g) ** 2 + noise)


def draw_channel(rng: np.random.Generator, noise: float, n: int | None = None) -> ChannelState:
    """Draw one coherence block: h, zeta, g i.i.d. unit-variance complex Gaussian.

    Args:
        rng: seeded generator; six normal deviates are consumed per block.
        noise: noise power sigma_w^2 (the source has unit power), or one
            per block, shape (n,).
        n: draw this many blocks at once; the state's p0 and p1 are then
            arrays of shape (n,).
    """
    z = rng.standard_normal(6 if n is None else (n, 6)) * np.sqrt(0.5)
    h, zeta, g = z.view(np.complex128).T
    return ChannelState.from_coefficients(h, zeta, g, noise)


CHANNEL_KINDS = ("rayleigh", "static")
SNR_REFERENCES = ("source", "mean_received")


@dataclass(frozen=True)
class ChannelModel:
    """Law of the channel (h, zeta, g) that every frame sees.

    ``rayleigh`` (the default): h, zeta, g i.i.d. unit-variance complex
    Gaussian, drawn afresh for each frame by ``draw_channel``.
    ``static``: one fixed channel, h = 1, zeta = sqrt(rho), g = j.  The
    backscatter path carries rho times the direct-path power, in quadrature
    with it, so |mu|^2 = 1 + rho.

    Attributes:
        kind: ``rayleigh`` or ``static``.
        rho: mean backscatter-to-direct path power, E|zeta g|^2 / E|h|^2.
            The Rayleigh law has unit-variance paths, so rho is 1 there.
    """

    kind: str = "rayleigh"
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(
                f"unknown channel kind {self.kind!r}, expected one of {CHANNEL_KINDS}"
            )
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if self.kind == "rayleigh" and self.rho != 1.0:
            raise ValueError(
                f"the Rayleigh model has unit-variance paths (rho = 1), got rho={self.rho}"
            )

    def noise_for_snr(self, snr_db: float, reference: str = "source") -> float:
        """The noise power sigma_w^2 that sets ``snr_db`` at unit source power.

        ``source``: SNR = 1 / sigma_w^2.
        ``mean_received``: SNR is the mean received signal power over the two
        equiprobable bit states, (E|h|^2 + E|mu|^2) / 2 = 1 + rho/2, over
        sigma_w^2.
        A ValueError names an unknown reference, or an SNR whose noise power
        is not a finite float.
        """
        if reference not in SNR_REFERENCES:
            raise ValueError(
                f"unknown SNR reference {reference!r}, expected one of {SNR_REFERENCES}"
            )
        signal = 1.0 if reference == "source" else 1.0 + self.rho / 2.0
        try:
            power = signal * 10.0 ** (-snr_db / 10.0)
        except OverflowError:
            power = np.inf
        if not np.isfinite(power):
            raise ValueError(f"SNR {snr_db} dB gives a noise power that is not finite")
        return power

    def static_state(self, noise: float) -> ChannelState:
        """The one channel state of a ``static`` model."""
        if self.kind != "static":
            raise ValueError(f"a {self.kind!r} channel has no fixed state")
        zeta = complex(np.sqrt(self.rho))
        return ChannelState.from_coefficients(1.0 + 0j, zeta, 1j, noise)


def gen_cgn_block(count: int, rng: np.random.Generator) -> np.ndarray:
    """Generate ``count`` i.i.d. unit-power circularly-symmetric complex
    Gaussian samples: E|x|^2 = 1, independent real and imaginary parts of
    variance 1/2 each.

    Returns:
        complex128 array of shape (count,).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # one draw of interleaved (re, im) pairs, reinterpreted as complex
    z = rng.standard_normal(2 * count).view(np.complex128)
    z *= np.sqrt(0.5)
    return z


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one unit of work, derived from a root seed.

    The derivation is counter-based (root entropy plus a spawn key), so any
    (seed, key) pair yields the same stream regardless of how many other
    streams were created or in which order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))
