"""Seeded Monte Carlo experiment runners.

Three experiment kinds are supported: mean-absolute-error of the timing
estimate versus SNR, the empirical distribution of the estimation error,
and a paired bit-error-rate comparison (no compensation / estimated
compensation / ideal synchronization).

Every trial owns an independent random substream derived from the root
seed and the (cell, trial) counters, and all aggregation is over integer
accumulators, so results are byte-identical no matter how trials are
chunked across workers.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams

# perfbench/spans.py times detection by wrapping ``harness._detect_bits``
from .detector import detect_frame as _detect_bits
from .estimator import collect_windows, estimate_sto
from .frame import FrameConfig, apply_sto, build_bit_sequence, synthesize_received
from .signal_model import ChannelModel, ChannelState, draw_channel, trial_rng

# every experiment frame has one wake-up bit ahead of the pilot
PREAMBLE_BITS = 1

# below this relative power gap the threshold formula is numerically
# meaningless and the trial's channel is redrawn
NEAR_DEGENERATE_REL = 1e-9


def _degenerate(ch: ChannelState) -> bool:
    return abs(ch.p1 - ch.p0) < NEAR_DEGENERATE_REL * max(ch.p0, ch.p1)


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
        threads: worker count; default is the available parallelism.
        channel: channel law; the default is Rayleigh block fading with one
            draw per frame.
        snr_reference: signal power the SNR refers to, ``source`` (the
            default) or ``mean_received``; see ``ChannelModel.noise_for_snr``.
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        axes = (self.snr_grid_db, self.pilot_pairs, self.symbol_samples, self.tau_choices)
        if not all(axes):
            raise ValueError(
                "snr_grid_db, pilot_pairs, symbol_samples and tau_choices must be non-empty"
            )
        if not all(np.isfinite(self.snr_grid_db)):
            raise ValueError(f"snr_grid_db must be finite, got {self.snr_grid_db}")
        for name in _KINDS[self.kind][2]:
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


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: the explicit value, else all cores.

    Raises ValueError if the explicit value is not a positive integer.
    """
    if explicit is None:
        return os.cpu_count() or 1
    if explicit < 1:
        raise ValueError(f"threads must be a positive integer, got {explicit}")
    return int(explicit)


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


def _cell_trials(config: ExperimentConfig, cell_index: int, start: int, stop: int):
    """The setup both chunk kinds share for trials [start, stop) of one cell.

    Returns the cell's frame, a per-trial channel source (a fresh draw under
    fading, the fixed state of a static channel) and an iterator over the
    trials that yields each one's substream and its offset drawn from
    ``tau_choices``.
    """
    snr, _, frame = _cells(config)[cell_index]
    noise = config.channel.noise_for_snr(snr, config.snr_reference)
    if config.channel.kind == "static":
        state = config.channel.static_state(noise)
        channel = lambda rng: state
    else:
        channel = lambda rng: draw_channel(rng, noise)
    taus = np.asarray(config.tau_choices, dtype=np.int64)

    def trials() -> Iterator[tuple[np.random.Generator, int]]:
        for trial in range(start, stop):
            rng = trial_rng(config.seed, cell_index, trial)
            yield rng, int(taus[rng.integers(taus.size)])

    return frame, channel, trials()


def _error_counts(
    config: ExperimentConfig, cell_index: int, start: int, stop: int
) -> np.ndarray:
    """Run estimation trials [start, stop) of one cell; count each signed error.

    Entry i counts the error i - N_p (|error| can never exceed N_p).
    """
    frame, channel, trials = _cell_trials(config, cell_index, start, stop)
    bits = build_bit_sequence(frame)
    errors = np.empty(stop - start, dtype=np.int64)
    for i, (rng, tau) in enumerate(trials):
        w = synthesize_received(bits, frame, channel(rng), rng)
        errors[i] = tau - estimate_sto(collect_windows(apply_sto(w, tau))).tau_hat
    span = config.pilot_bit_samples
    return np.bincount(errors + span, minlength=2 * span + 1)


def _ber_chunk(
    config: ExperimentConfig, cell_index: int, start: int, stop: int
) -> tuple[int, int, int, int, int]:
    """Paired-trial error counts: (ideal, no_comp, comp, bits, redraws)."""
    frame, channel, trials = _cell_trials(config, cell_index, start, stop)
    k = frame.data_symbols
    e_ideal = e_nocomp = e_comp = redraws = 0
    for rng, tau in trials:
        while True:
            ch = channel(rng)
            if not _degenerate(ch):
                break
            redraws += 1
        payload = rng.integers(0, 2, size=k)
        bits = build_bit_sequence(frame, payload)
        w = synthesize_received(bits, frame, ch, rng)
        params = DetectorParams.from_powers(frame.data_symbol_samples, ch.p0, ch.p1)

        ideal_bits, _ = _detect_bits(w, params, 0)
        w_sto = apply_sto(w, tau)
        nocomp_bits, _ = _detect_bits(w_sto, params, 0)
        est = estimate_sto(collect_windows(w_sto))
        comp_bits, _ = _detect_bits(w_sto, params, est.tau_hat)

        e_ideal += int((ideal_bits != payload).sum())
        e_nocomp += int((nocomp_bits != payload).sum())
        e_comp += int((comp_bits != payload).sum())
    bits_counted = (stop - start) * k
    return e_ideal, e_nocomp, e_comp, bits_counted, redraws


def _run_task(args):
    config, cell_index, start, stop = args
    return _KINDS[config.kind][0](config, cell_index, start, stop)


def _trial_ranges(trials: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, trials))
    edges = np.linspace(0, trials, parts + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _execute(config: ExperimentConfig) -> list[list]:
    """Run all (cell, trial-range) tasks; returns chunk outputs grouped by cell."""
    cells = _cells(config)
    threads = resolve_threads(config.threads)
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
    return [outputs[i * per_cell : (i + 1) * per_cell] for i in range(len(cells))]


def _mae(config: ExperimentConfig, grouped: list[list]) -> MaeResult:
    """Mean absolute estimation error per (SNR, L) cell."""
    span = config.pilot_bit_samples
    abs_errors = np.abs(np.arange(-span, span + 1))
    rows = []
    for (snr, pairs, _), chunks in zip(_cells(config), grouped):
        abs_sum = int(abs_errors @ np.sum(chunks, axis=0))
        rows.append((snr, pairs, abs_sum / config.trials, config.trials))
    return MaeResult(rows=tuple(rows))


def _error_hist(config: ExperimentConfig, grouped: list[list]) -> ErrorHistResult:
    """Empirical pmf of the signed estimation error at one (SNR, L) point."""
    counts = np.sum(grouped[0], axis=0)
    span = config.pilot_bit_samples
    probs = {
        int(eps - span): int(c) / config.trials
        for eps, c in enumerate(counts)
        if c > 0
    }
    return ErrorHistResult(probabilities=probs)


def _ber(config: ExperimentConfig, grouped: list[list]) -> BerResult:
    """Paired BER under no compensation, estimated compensation, and ideal sync."""
    rows = []
    for (snr, n, _), chunks in zip(_cells(config), grouped):
        e_ideal = sum(c[0] for c in chunks)
        e_nocomp = sum(c[1] for c in chunks)
        e_comp = sum(c[2] for c in chunks)
        bits = sum(c[3] for c in chunks)
        rows.append((snr, n, e_nocomp / bits, e_comp / bits, e_ideal / bits, bits))
    return BerResult(rows=tuple(rows))


# kind -> (chunk function each task runs, aggregator of the grouped chunk
# outputs, the config fields the kind does not sweep and so takes one value of)
_KINDS = {
    "mae_vs_snr": (_error_counts, _mae, ("symbol_samples",)),
    "error_hist": (_error_counts, _error_hist, ("snr_grid_db", "pilot_pairs", "symbol_samples")),
    "ber_compare": (_ber_chunk, _ber, ("pilot_pairs",)),
}


def run_experiment(config: ExperimentConfig) -> MaeResult | ErrorHistResult | BerResult:
    """Run every trial of the experiment and aggregate them by its kind."""
    return _KINDS[config.kind][1](config, _execute(config))


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
