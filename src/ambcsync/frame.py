"""Device-side frame construction, receiver-side waveform synthesis, and the
receiver's symbol clock (offset injection and compensation).

A transmission is three phases back to back: one all-one wake-up bit of
N_p samples, an alternating (0,1) pilot of L bit-pairs, and the data
payload, then one trailing "0" guard bit of N samples.  The wake-up bit
absorbs every clock advance that a detectable offset and its estimate can
set (tau > -N_p/2, tau - tau_hat > -N_p), and the guard bit a delay.

Symbol timing offset is modelled on the receiver's sampling clock: the
window it takes for any symbol covers the true samples shifted by tau,
so a negative tau pulls in the tail of the previous symbol and a positive
tau the head of the next one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import ChannelState, gen_cgn_block


@dataclass(frozen=True)
class FrameConfig:
    """Sample-level frame geometry.

    Attributes:
        pilot_pairs: number L of alternating (0,1) pilot bit-pairs.
        pilot_bit_samples: samples per pilot bit, N_p.
        data_symbols: number K of payload bits.
        data_symbol_samples: samples per payload bit, N (also the guard length).
    """

    pilot_pairs: int
    pilot_bit_samples: int
    data_symbols: int
    data_symbol_samples: int

    def __post_init__(self):
        if self.pilot_pairs < 1:
            raise ValueError("pilot_pairs must be >= 1")
        # the transition-point scan needs interior candidates {2..N_p-1}
        if self.pilot_bit_samples < 4:
            raise ValueError("pilot_bit_samples must be >= 4")
        if self.data_symbols < 0:
            raise ValueError("data_symbols must be >= 0")
        if self.data_symbol_samples < 1:
            raise ValueError("data_symbol_samples must be >= 1")

    @property
    def pilot_start(self) -> int:
        return self.pilot_bit_samples

    @property
    def data_start(self) -> int:
        return self.pilot_start + 2 * self.pilot_pairs * self.pilot_bit_samples

    @property
    def total_samples(self) -> int:
        # payload plus one trailing guard bit of N samples
        return self.data_start + (self.data_symbols + 1) * self.data_symbol_samples

    @property
    def total_bits(self) -> int:
        return 2 + 2 * self.pilot_pairs + self.data_symbols

    def check_tau(self, tau: int) -> None:
        """Refuse an offset that leaves the pilot windows no detectable
        transition: N_p must exceed 2|tau|."""
        if 2 * abs(tau) >= self.pilot_bit_samples:
            raise ValueError(
                f"|tau|={abs(tau)} not detectable: need pilot_bit_samples > 2|tau|, "
                f"have {self.pilot_bit_samples}"
            )

    def check_clock(self, clock: int) -> None:
        """Refuse a clock offset whose windows leave the frame: the wake-up
        bit must absorb an advance and the trailing guard bit a delay."""
        if not -self.pilot_start <= clock <= self.data_symbol_samples:
            raise ValueError(
                f"clock offset {clock} exceeds available guard samples "
                f"(need {-self.pilot_start} <= offset <= {self.data_symbol_samples})"
            )

    def bit_durations(self) -> np.ndarray:
        """Per-bit sample counts, in transmission order (guard bit included)."""
        return np.concatenate(
            [
                np.full(1 + 2 * self.pilot_pairs, self.pilot_bit_samples),
                np.full(self.data_symbols + 1, self.data_symbol_samples),
            ]
        )


@dataclass(frozen=True)
class Waveform:
    """Received baseband samples plus the receiver's symbol clock.

    ``clock`` is the receiver's sampling-clock offset in samples: it believes
    the pilot and data phases begin ``clock`` samples after the config's
    starts.  Shifting it models a clock offset without touching the samples.
    """

    samples: np.ndarray
    config: FrameConfig
    clock: int = 0

    @property
    def pilot_start(self) -> int:
        return self.config.pilot_start + self.clock

    @property
    def data_start(self) -> int:
        return self.config.data_start + self.clock


def build_bit_sequence(cfg: FrameConfig, payload: np.ndarray | tuple = ()) -> np.ndarray:
    """Assemble the transmitted bit sequence: wake-up bit, pilot, payload, guard."""
    payload = np.asarray(payload, dtype=np.int64)
    if payload.shape != (cfg.data_symbols,):
        raise ValueError(
            f"payload length {payload.size} != configured data_symbols {cfg.data_symbols}"
        )
    pilot = np.tile(np.array([0, 1], dtype=np.int64), cfg.pilot_pairs)
    return np.concatenate([[1], pilot, payload, [0]])


def synthesize_received(
    bits: np.ndarray, cfg: FrameConfig, ch: ChannelState, rng: np.random.Generator
) -> Waveform:
    """Synthesize the receiver's baseband stream for one frame.

    Every sample inside bit k is an independent complex Gaussian of power
    p0 or p1 depending on the bit (``ChannelState.from_coefficients``).
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape != (cfg.total_bits,):
        raise ValueError(f"expected {cfg.total_bits} bits, got {bits.size}")
    amplitude = np.repeat(np.sqrt(np.where(bits == 1, ch.p1, ch.p0)), cfg.bit_durations())
    samples = gen_cgn_block(amplitude.size, rng) * amplitude
    return Waveform(samples, cfg)


def _shift_clock(w: Waveform, delta: int) -> Waveform:
    """Shift the receiver's symbol clock by ``delta`` samples, with range checks."""
    clock = w.clock + delta
    w.config.check_clock(clock)
    return Waveform(w.samples, w.config, clock)


def apply_sto(w: Waveform, tau: int) -> Waveform:
    """Offset the receiver's sampling clock by ``tau`` samples.

    The window for any symbol then covers true samples
    [start + tau, start + tau + len).  Requires N_p > 2|tau| so that the
    pilot windows keep a detectable transition, and enough wake-up/guard
    samples to absorb the shift.
    """
    tau = int(tau)
    w.config.check_tau(tau)
    return _shift_clock(w, tau)


def compensate(w: Waveform, tau_hat: int) -> Waveform:
    """Realign the receiver's symbol clock using the offset estimate.

    Applied to a waveform whose clock is offset by the true tau, the
    residual misalignment after compensation is tau - tau_hat; a perfect
    estimate restores the ideal-synchronization windows exactly.
    """
    return _shift_clock(w, -int(tau_hat))
