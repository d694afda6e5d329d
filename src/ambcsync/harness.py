"""Seeded Monte Carlo experiment runners.

Three experiment kinds are supported: mean-absolute-error of the timing
estimate versus SNR, the empirical distribution of the estimation error,
and a paired bit-error-rate comparison (no compensation / estimated
compensation / ideal synchronization).

A BER frame carries a payload and runs one trial at a time: draw the offset
and the channel, synthesize the frame, offset its clock, estimate the offset
from the pilot and detect the payload three ways.  It owns the random
substream derived from the root seed and the (cell, trial) counters.

An MAE or histogram frame has no payload, and its trial is only the pilot
scan, which reads the pilot through its N_p column power sums
(``scan_sto``).  Those sums are drawn directly.  Under one channel per
frame, column j of the L "1" windows sums L independent |CN(0, p)|^2
samples, i.e. p * Gamma(L, 1): p = p1 where the offset window still covers
its "1" bit (0 <= tau + j < N_p), and p = p0 where it reads a neighbour.
That is exact: every "1" window's neighbours are "0" bits (the pilot "0"
before it, and the pilot "0" or the guard bit after it), and no two windows
share a sample, because the windows lie 2 N_p apart and |tau| < N_p/2.
Such trials run in fixed blocks of ``BLOCK``: each block owns the substream
(seed, cell, block) and draws its offsets, channels and gamma sums at once
for one batched scan.

A task draws every block its trial range overlaps and keeps only its own
trials, and all aggregation is over integer accumulators, so results are
byte-identical no matter how trials are chunked across workers.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams

# perfbench/spans.py times detection by wrapping ``harness._detect_bits``
from .detector import detect_frame as _detect_bits
from .estimator import collect_windows, estimate_sto, scan_sto
from .frame import FrameConfig, apply_sto, build_bit_sequence, synthesize_received
from .signal_model import ChannelModel, ChannelState, draw_channel, trial_rng

# every experiment frame has one wake-up bit ahead of the pilot
PREAMBLE_BITS = 1

# trials per pilot-only block; fixed, so that the blocks and their substreams
# do not depend on the worker count
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
        for name in ("pilot_pairs", "symbol_samples", "tau_choices"):
            object.__setattr__(self, name, tuple(_as_int(name, v) for v in getattr(self, name)))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be a positive integer, got {self.threads}")
        axes = (self.snr_grid_db, self.pilot_pairs, self.symbol_samples, self.tau_choices)
        if not all(axes):
            raise ValueError(
                "snr_grid_db, pilot_pairs, symbol_samples and tau_choices must be non-empty"
            )
        if not all(np.isfinite(self.snr_grid_db)):
            raise ValueError(f"snr_grid_db must be finite, got {self.snr_grid_db}")
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

    snrs = [float(snr) for snr in config.snr_grid_db]
    if config.kind == "ber_compare":
        pairs, k = config.pilot_pairs[0], config.data_symbols
        return [(snr, n, frame(pairs, k, n)) for snr in snrs for n in config.symbol_samples]
    n = config.symbol_samples[0]
    return [(snr, pairs, frame(pairs, 0, n)) for snr in snrs for pairs in config.pilot_pairs]


def _run_task(args) -> np.ndarray:
    """Run trials [start, stop) of one cell; every experiment kind runs this task.

    Returns int64 counts: entry i < 2 N_p + 1 counts the signed estimation
    error i - N_p (|error| can never exceed N_p), and the last three entries
    are the payload bit errors under ideal sync, no compensation and the
    estimated compensation (zero for a frame without payload).
    """
    config, cell_index, start, stop = args
    snr, _, frame = _cells(config)[cell_index]
    noise = config.channel.noise_for_snr(snr, config.snr_reference)
    fixed = config.channel.static_state(noise) if config.channel.kind == "static" else None
    counts = np.zeros(2 * config.pilot_bit_samples + 4, dtype=np.int64)
    run = _frame_trials if frame.data_symbols else _pilot_blocks
    run(config, cell_index, frame, noise, fixed, start, stop, counts)
    return counts


def _frame_trials(config, cell_index, frame, noise, fixed, start, stop, counts) -> None:
    """Add trials [start, stop) of a frame with payload to ``counts``, one
    synthesized frame per trial."""
    taus, k, span = config.tau_choices, frame.data_symbols, config.pilot_bit_samples
    for trial in range(start, stop):
        rng = trial_rng(config.seed, cell_index, trial)
        tau = taus[rng.integers(len(taus))]
        ch = draw_channel(rng, noise) if fixed is None else fixed
        # the threshold needs distinct on/off powers; the config refuses
        # a degenerate static channel, so only a fading draw is redrawn
        while _degenerate(ch):
            ch = draw_channel(rng, noise)
        payload = rng.integers(0, 2, size=k)
        bits = build_bit_sequence(frame, payload)
        w = synthesize_received(bits, frame, ch, rng)
        w_sto = apply_sto(w, tau)
        tau_hat = estimate_sto(collect_windows(w_sto)).tau_hat
        counts[tau - tau_hat + span] += 1
        params = DetectorParams.from_powers(frame.data_symbol_samples, ch.p0, ch.p1)
        for i, (wave, shift) in enumerate(((w, 0), (w_sto, 0), (w_sto, tau_hat))):
            decided, _ = _detect_bits(wave, params, shift)
            counts[2 * span + 1 + i] += int((decided != payload).sum())


def _pilot_blocks(config, cell_index, frame, noise, fixed, start, stop, counts) -> None:
    """Add trials [start, stop) of a frame without payload to ``counts``, drawn
    as pilot column sums a block at a time (see the module docstring)."""
    taus = np.asarray(config.tau_choices)
    pairs, span = frame.pilot_pairs, frame.pilot_bit_samples
    columns = np.arange(span)
    for block in range(start // BLOCK, (stop - 1) // BLOCK + 1):
        first = block * BLOCK
        n = min(BLOCK, config.trials - first)
        rng = trial_rng(config.seed, cell_index, block)
        tau = taus[rng.integers(len(taus), size=n)]
        ch = draw_channel(rng, noise, n) if fixed is None else fixed
        sums = rng.standard_gamma(pairs, size=(n, span))
        shifted = tau[:, None] + columns
        inside = (shifted >= 0) & (shifted < span)
        sums *= np.where(inside, np.reshape(ch.p1, (-1, 1)), np.reshape(ch.p0, (-1, 1)))
        keep = slice(max(start - first, 0), min(stop - first, n))
        errors = tau[keep] - scan_sto(sums[keep], pairs) + span
        counts[: 2 * span + 1] += np.bincount(errors, minlength=2 * span + 1)


def _trial_ranges(trials: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, trials))
    edges = np.linspace(0, trials, parts + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _execute(config: ExperimentConfig) -> list[np.ndarray]:
    """Run all (cell, trial-range) tasks; returns each cell's summed counts."""
    cells = _cells(config)
    threads = config.threads or os.cpu_count() or 1
    ranges = _trial_ranges(config.trials, threads)
    tasks = [
        (config, ci, a, b) for ci in range(len(cells)) for (a, b) in ranges
    ]
    # trials are chunked by the requested count, so outputs do not depend on
    # how many processes run the chunks
    processes = min(threads, len(tasks), os.cpu_count() or 1)
    if processes == 1:
        outputs = [_run_task(t) for t in tasks]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ctx.Pool(processes=processes) as pool:
            outputs = pool.map(_run_task, tasks, chunksize=1)
    per_cell = len(ranges)
    return [np.sum(outputs[i * per_cell : (i + 1) * per_cell], axis=0) for i in range(len(cells))]


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
