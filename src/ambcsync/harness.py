"""Seeded Monte Carlo experiment runners.

Three experiment kinds are supported: mean-absolute-error of the timing
estimate versus SNR, the empirical distribution of the estimation error,
and a paired bit-error-rate comparison (no compensation / estimated
compensation / ideal synchronization).

Each task is one fixed block of ``BLOCK`` trials of one grid cell.  It owns
the substream derived from the root seed and the (cell, block) counters,
and draws from it the block's offsets, then its channels.  A BER frame
carries a payload, and its block then runs one trial at a time on the same
substream: redraw a degenerate channel, draw the payload, synthesize the
frame, offset its clock, estimate the offset and detect the payload three ways.

An MAE or histogram frame has no payload, and its trial is only the pilot
scan, which reads the pilot through its N_p column power sums
(``scan_sto``).  Those sums are drawn directly.  Under one channel per
frame, column j of the L "1" windows sums L independent |CN(0, p)|^2
samples, i.e. p * Gamma(L, 1): p = p1 where the offset window still covers
its "1" bit (0 <= tau + j < N_p), and p = p0 where it reads a neighbour.
That is exact: every "1" window's neighbours are "0" bits (the pilot "0"
before it, and the pilot "0" or the guard bit after it), and no two windows
share a sample, because the windows lie 2 N_p apart and |tau| < N_p/2.
The block draws all its gamma sums at once for one batched scan.

Blocks do not depend on the worker count, and all aggregation is over
integer accumulators, so results are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams

# perfbench/spans.py times the layers by wrapping these module attributes:
# trial_rng, draw_channel, build_bit_sequence, synthesize_received, apply_sto,
# collect_windows, estimate_sto (whose .tau_hat it reads), _detect_bits and
# _run_task, plus frame.gen_cgn_block and DetectorParams.from_powers.
# Removing or renaming any of them fails the traced benchmark.
from .detector import detect_frame as _detect_bits
from .estimator import collect_windows, estimate_sto, scan_sto
from .frame import FrameConfig, apply_sto, build_bit_sequence, synthesize_received
from .signal_model import ChannelModel, ChannelState, draw_channel, trial_rng

# every experiment frame has one wake-up bit ahead of the pilot
PREAMBLE_BITS = 1

# trials per task; fixed, so that the blocks and their substreams do not
# depend on the worker count
BLOCK = 256

# below this relative power gap the threshold formula is numerically
# meaningless and the trial's channel is redrawn
NEAR_DEGENERATE_REL = 1e-9


def _degenerate(ch: ChannelState) -> bool:
    return abs(ch.p1 - ch.p0) < NEAR_DEGENERATE_REL * max(ch.p0, ch.p1)


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; Python and numpy integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_axis(name: str, values, item_type: type) -> tuple:
    """``values``, a non-empty sequence, as a tuple of Python ints or finite floats."""
    try:
        items = tuple(values)
    except TypeError:
        items = ()
    if not items:
        raise ValueError(f"{name} must be a non-empty sequence, got {values!r}")
    if item_type is int:
        return tuple(_as_int(name, v) for v in items)
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in items):
        raise ValueError(f"{name} must hold finite real numbers, got {values!r}")
    return tuple(map(float, items))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one seeded experiment.

    Attributes:
        kind: one of ``mae_vs_snr``, ``error_hist``, ``ber_compare``.
        snr_grid_db: SNR points (source power fixed at 1, noise scaled; see
            ``snr_reference``).
        trials: Monte Carlo trials per grid cell.
        pilot_pairs: L values; the MAE experiment sweeps them, the others
            use a single value.
        pilot_bit_samples: window width N_p.
        symbol_samples: per-symbol sample counts N; the BER experiment
            sweeps them, the others take one, the trailing guard bit's length.
        data_symbols: payload bits per frame (BER experiment).
        tau_choices: candidate timing offsets; each trial draws uniformly
            from this set (a singleton pins the offset).
        seed: non-negative root seed for the substream derivation.
        threads: worker count, a positive integer; the default is the
            available parallelism.
        channel: channel law; the default is Rayleigh block fading with one
            draw per frame.
        snr_reference: signal power the SNR refers to, ``source`` (the
            default) or ``mean_received``; see ``ChannelModel.noise_for_snr``.

    Integer fields take Python or numpy integers and are stored as Python
    ints; any other value (a float such as 2.5 or 8.0) raises ValueError.
    Grid axes take any sequence and are stored as tuples (of floats for SNRs).
    """

    kind: str
    snr_grid_db: tuple[float, ...]
    trials: int
    pilot_pairs: tuple[int, ...] = (30,)
    pilot_bit_samples: int = 30
    symbol_samples: tuple[int, ...] = (50,)
    data_symbols: int = 50
    tau_choices: tuple[int, ...] = (-10, 10)
    seed: int = 0
    threads: int | None = None
    channel: ChannelModel = ChannelModel()
    snr_reference: str = "source"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # a float count, seed or offset would truncate or fail mid-run
        for name in ("trials", "pilot_bit_samples", "data_symbols", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.threads is not None:
            object.__setattr__(self, "threads", _as_int("threads", self.threads))
        for name in ("snr_grid_db", "pilot_pairs", "symbol_samples", "tau_choices"):
            item_type = float if name == "snr_grid_db" else int
            object.__setattr__(self, name, _as_axis(name, getattr(self, name), item_type))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be a positive integer, got {self.threads}")
        for name in _KINDS[self.kind][1]:
            if len(getattr(self, name)) != 1:
                raise ValueError(f"{self.kind} takes one {name} value, got {getattr(self, name)}")
        if self.kind == "ber_compare" and self.data_symbols < 1:
            raise ValueError("ber_compare needs data_symbols >= 1")
        if not isinstance(self.channel, ChannelModel):
            raise ValueError(f"channel must be a ChannelModel, got {self.channel!r}")
        # each cell's frame checks its geometry and every offset a trial can
        # draw; a wrong-signed estimate moves the compensated clock up to
        # max(tau) + ceil(N_p/2) - 1 samples late, which the BER frame's guard
        # bit must absorb
        worst = max(self.tau_choices) + (self.pilot_bit_samples + 1) // 2 - 1
        for snr, _, frame in _cells(self):
            for tau in self.tau_choices:
                frame.check_tau(tau)
                frame.check_clock(tau)
            if self.kind == "ber_compare":
                frame.check_clock(worst)
            # resolving the noise power also checks the SNR's range and reference
            noise = self.channel.noise_for_snr(snr, self.snr_reference)
            if self.channel.kind != "static":
                continue
            # every trial sees this one state: a degenerate one would send the
            # BER runner's redraw loop round forever
            ch = self.channel.static_state(noise)
            if _degenerate(ch):
                raise ValueError(
                    f"static channel with rho={self.channel.rho} has equal on/off "
                    f"powers at {snr} dB (p0={ch.p0}, p1={ch.p1})"
                )


def _csv(header: str, rows) -> str:
    """The header, then one comma-separated line per row (floats round-trip)."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


@dataclass(frozen=True)
class MaeResult:
    """Rows of (snr_db, L, mae, trials)."""

    rows: tuple[tuple[float, int, float, int], ...]

    def to_csv(self) -> str:
        return _csv("snr_db,L,mae,trials", self.rows)


@dataclass(frozen=True)
class ErrorHistResult:
    """Empirical pmf of the estimation error."""

    probabilities: dict[int, float]

    def to_csv(self) -> str:
        return _csv("epsilon,probability", sorted(self.probabilities.items()))


@dataclass(frozen=True)
class BerResult:
    """Rows of (snr_db, N, ber_no_comp, ber_comp, ber_ideal, bits)."""

    rows: tuple[tuple[float, int, float, float, float, int], ...]

    def to_csv(self) -> str:
        return _csv("snr_db,N,ber_no_comp,ber_comp,ber_ideal,bits", self.rows)


def _cells(config: ExperimentConfig) -> list[tuple[float, int, FrameConfig]]:
    """(SNR, swept value, frame) for each grid cell, in row order: the BER
    experiment sweeps N at its one L, the others sweep L with no payload."""
    def frame(pairs: int, k: int, n: int) -> FrameConfig:
        return FrameConfig(PREAMBLE_BITS, pairs, config.pilot_bit_samples, k, n)

    snrs = config.snr_grid_db
    if config.kind == "ber_compare":
        pairs, k = config.pilot_pairs[0], config.data_symbols
        return [(snr, n, frame(pairs, k, n)) for snr in snrs for n in config.symbol_samples]
    n = config.symbol_samples[0]
    return [(snr, pairs, frame(pairs, 0, n)) for snr in snrs for pairs in config.pilot_pairs]


def _run_task(args) -> np.ndarray:
    """Run one block of one cell; every experiment kind runs this task.

    ``args`` is (config, cell index, frame, noise power, block); ``_execute``
    builds each cell's frame and noise power once per run.

    Returns int64 counts: entry i < 2 N_p + 1 counts the signed estimation
    error i - N_p (|error| can never exceed N_p), and the last three entries
    are the payload bit errors under ideal sync, no compensation and the
    estimated compensation (zero for a frame without payload).
    """
    config, cell_index, frame, noise, block = args
    n = min(BLOCK, config.trials - block * BLOCK)
    rng = trial_rng(config.seed, cell_index, block)
    tau = np.asarray(config.tau_choices)[rng.integers(len(config.tau_choices), size=n)]
    static = config.channel.kind == "static"
    channels = config.channel.static_state(noise) if static else draw_channel(rng, noise, n)
    counts = np.zeros(2 * config.pilot_bit_samples + 4, dtype=np.int64)
    body = _frame_trials if frame.data_symbols else _pilot_sums
    body(rng, frame, noise, tau, channels, counts)
    return counts


def _frame_trials(rng, frame, noise, tau, channels, counts) -> None:
    """Add a block of frames with payload to ``counts``, one synthesized
    frame per trial, each drawing from ``rng`` in trial order."""
    span = frame.pilot_bit_samples
    p0, p1 = (np.broadcast_to(p, tau.shape) for p in (channels.p0, channels.p1))
    for t, ch in zip(tau.tolist(), map(ChannelState, p0, p1)):
        # the threshold needs distinct on/off powers; the config refuses
        # a degenerate static channel, so only a fading draw is redrawn
        while _degenerate(ch):
            ch = draw_channel(rng, noise)
        payload = rng.integers(0, 2, size=frame.data_symbols)
        bits = build_bit_sequence(frame, payload)
        w = synthesize_received(bits, frame, ch, rng)
        w_sto = apply_sto(w, t)
        tau_hat = estimate_sto(collect_windows(w_sto)).tau_hat
        counts[t - tau_hat + span] += 1
        params = DetectorParams.from_powers(frame.data_symbol_samples, ch.p0, ch.p1)
        for i, (wave, shift) in enumerate(((w, 0), (w_sto, 0), (w_sto, tau_hat))):
            decided, _ = _detect_bits(wave, params, shift)
            counts[2 * span + 1 + i] += int((decided != payload).sum())


def _pilot_sums(rng, frame, noise, tau, channels, counts) -> None:
    """Add a block of frames without payload to ``counts``, drawn as pilot
    column sums and scanned at once (see the module docstring)."""
    pairs, span = frame.pilot_pairs, frame.pilot_bit_samples
    sums = rng.standard_gamma(pairs, size=(tau.size, span))
    shifted = tau[:, None] + np.arange(span)
    inside = (shifted >= 0) & (shifted < span)
    p0, p1 = (np.reshape(p, (-1, 1)) for p in (channels.p0, channels.p1))
    sums *= np.where(inside, p1, p0)
    errors = tau - scan_sto(sums, pairs) + span
    counts[: 2 * span + 1] += np.bincount(errors, minlength=2 * span + 1)


def _execute(config: ExperimentConfig) -> list[np.ndarray]:
    """Run all (cell, block) tasks; returns each cell's summed counts."""
    cells = [
        (ci, frame, config.channel.noise_for_snr(snr, config.snr_reference))
        for ci, (snr, _, frame) in enumerate(_cells(config))
    ]
    blocks = -(-config.trials // BLOCK)
    tasks = [(config, *cell, block) for cell in cells for block in range(blocks)]
    cores = os.cpu_count() or 1
    processes = min(config.threads or cores, len(tasks), cores)
    if processes == 1:
        outputs = [_run_task(t) for t in tasks]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ctx.Pool(processes=processes) as pool:
            outputs = pool.map(_run_task, tasks, chunksize=1)
    return [np.sum(outputs[i * blocks : (i + 1) * blocks], axis=0) for i in range(len(cells))]


def _mae(config: ExperimentConfig, counts: list[np.ndarray]) -> MaeResult:
    """Mean absolute estimation error per (SNR, L) cell."""
    span = config.pilot_bit_samples
    abs_errors = np.abs(np.arange(-span, span + 1))
    rows = []
    for (snr, pairs, _), c in zip(_cells(config), counts):
        abs_sum = int(abs_errors @ c[: 2 * span + 1])
        rows.append((snr, pairs, abs_sum / config.trials, config.trials))
    return MaeResult(rows=tuple(rows))


def _error_hist(config: ExperimentConfig, counts: list[np.ndarray]) -> ErrorHistResult:
    """Empirical pmf of the signed estimation error at one (SNR, L) point."""
    span = config.pilot_bit_samples
    probs = {
        eps - span: int(c) / config.trials
        for eps, c in enumerate(counts[0][: 2 * span + 1])
        if c > 0
    }
    return ErrorHistResult(probabilities=probs)


def _ber(config: ExperimentConfig, counts: list[np.ndarray]) -> BerResult:
    """Paired BER under no compensation, estimated compensation, and ideal sync."""
    bits = config.trials * config.data_symbols
    rows = []
    for (snr, n, _), c in zip(_cells(config), counts):
        e_ideal, e_nocomp, e_comp = (int(e) for e in c[-3:])
        rows.append((snr, n, e_nocomp / bits, e_comp / bits, e_ideal / bits, bits))
    return BerResult(rows=tuple(rows))


# kind -> (aggregator of the cells' summed counts, the config fields the kind
# does not sweep and so takes one value of)
_KINDS = {
    "mae_vs_snr": (_mae, ("symbol_samples",)),
    "error_hist": (_error_hist, ("snr_grid_db", "pilot_pairs", "symbol_samples")),
    "ber_compare": (_ber, ("pilot_pairs",)),
}


def run_experiment(config: ExperimentConfig) -> MaeResult | ErrorHistResult | BerResult:
    """Run every trial of the experiment and aggregate them by its kind."""
    return _KINDS[config.kind][0](config, _execute(config))


def write_csv(text: str, path: str) -> None:
    """UTF-8, LF line endings, header row included by the result formatters.

    The text goes to a temporary file beside ``path``, which then replaces
    ``path`` in one step: a failed write leaves no partial file and any
    earlier file intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
