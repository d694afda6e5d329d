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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams

# perfbench/spans.py times detection by wrapping ``harness._detect_bits``
from .detector import detect_frame as _detect_bits
from .estimator import collect_windows, estimate_sto, estimation_error
from .frame import FrameConfig, apply_sto, build_bit_sequence, synthesize_received
from .signal_model import ChannelModel, ChannelState, NoisePowers, draw_channel, trial_rng

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
            sweeps them, the others only need the first entry for the
            trailing guard bit.
        data_symbols: payload bits per frame (BER experiment).
        tau_choices: candidate timing offsets; each trial draws uniformly
            from this set (a singleton pins the offset).
        seed: root seed for the substream derivation.
        out_path: CSV destination, if any.
        threads: worker count; ``AMBC_THREADS`` overrides, default is the
            available parallelism.
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
    out_path: str | None = None
    threads: int | None = None
    channel: ChannelModel = ChannelModel()
    snr_reference: str = "source"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be non-empty")
        if not self.pilot_pairs or any(l < 1 for l in self.pilot_pairs):
            raise ValueError("pilot_pairs must be non-empty positive integers")
        if self.pilot_bit_samples < 4:
            raise ValueError("pilot_bit_samples must be >= 4")
        if not self.symbol_samples or any(n < 1 for n in self.symbol_samples):
            raise ValueError("symbol_samples must be non-empty positive integers")
        if not self.tau_choices:
            raise ValueError("tau_choices must be non-empty")
        for tau in self.tau_choices:
            if 2 * abs(tau) >= self.pilot_bit_samples:
                raise ValueError(
                    f"tau={tau} undetectable: need pilot_bit_samples > 2|tau|"
                )
            if tau > min(self.symbol_samples):
                raise ValueError(
                    f"tau={tau} exceeds the guard of {min(self.symbol_samples)} samples"
                )
        if not isinstance(self.channel, ChannelModel):
            raise ValueError(f"channel must be a ChannelModel, got {self.channel!r}")
        for snr in self.snr_grid_db:
            # resolving the noise power also checks the SNR reference
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
        if self.kind == "error_hist" and (
            len(self.snr_grid_db) != 1 or len(self.pilot_pairs) != 1
        ):
            raise ValueError("error_hist runs a single (snr, L) point")
        if self.kind == "ber_compare":
            if len(self.pilot_pairs) != 1:
                raise ValueError("ber_compare uses a single L")
            if self.data_symbols < 1:
                raise ValueError("ber_compare needs data_symbols >= 1")
            # a wrong-signed estimate shifts the compensated read window by up
            # to max(tau) + ceil(N_p/2) - 1 past the payload; the guard bit
            # must cover that worst case
            worst = max(max(self.tau_choices), 0) + (self.pilot_bit_samples + 1) // 2 - 1
            if min(self.symbol_samples) < worst:
                raise ValueError(
                    f"guard of {min(self.symbol_samples)} samples cannot absorb a "
                    f"worst-case compensated shift of {worst}"
                )


@dataclass(frozen=True)
class MaeResult:
    """Rows of (snr_db, L, mae, trials)."""

    rows: tuple[tuple[float, int, float, int], ...]

    def to_csv(self) -> str:
        lines = ["snr_db,L,mae,trials"]
        for snr, pairs, mae, trials in self.rows:
            lines.append(f"{float(snr)!r},{pairs},{mae!r},{trials}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ErrorHistResult:
    """Empirical pmf of the estimation error."""

    probabilities: dict[int, float]
    trials: int

    def to_csv(self) -> str:
        lines = ["epsilon,probability"]
        for eps in sorted(self.probabilities):
            lines.append(f"{eps},{self.probabilities[eps]!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BerResult:
    """Rows of (snr_db, N, ber_no_comp, ber_comp, ber_ideal, bits)."""

    rows: tuple[tuple[float, int, float, float, float, int], ...]

    def to_csv(self) -> str:
        lines = ["snr_db,N,ber_no_comp,ber_comp,ber_ideal,bits"]
        for snr, n, no_comp, comp, ideal, bits in self.rows:
            lines.append(f"{float(snr)!r},{n},{no_comp!r},{comp!r},{ideal!r},{bits}")
        return "\n".join(lines) + "\n"


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: AMBC_THREADS env var, else the explicit value, else all cores.

    Raises ValueError if AMBC_THREADS is set to anything but a positive integer.
    """
    env = os.environ.get("AMBC_THREADS")
    if env:
        if not (env.strip().isdecimal() and int(env) >= 1):
            raise ValueError(f"AMBC_THREADS must be a positive integer, got {env!r}")
        return int(env)
    if explicit is not None:
        return max(1, int(explicit))
    return os.cpu_count() or 1


def _cells(config: ExperimentConfig) -> list[tuple[float, int]]:
    if config.kind == "mae_vs_snr":
        return [(snr, pairs) for snr in config.snr_grid_db for pairs in config.pilot_pairs]
    if config.kind == "ber_compare":
        return [(snr, n) for snr in config.snr_grid_db for n in config.symbol_samples]
    return [(config.snr_grid_db[0], config.pilot_pairs[0])]


def _frame_config(config: ExperimentConfig, cell: tuple[float, int]) -> FrameConfig:
    if config.kind == "ber_compare":
        return FrameConfig(
            preamble_bits=PREAMBLE_BITS,
            pilot_pairs=config.pilot_pairs[0],
            pilot_bit_samples=config.pilot_bit_samples,
            data_symbols=config.data_symbols,
            data_symbol_samples=cell[1],
        )
    return FrameConfig(
        preamble_bits=PREAMBLE_BITS,
        pilot_pairs=cell[1],
        pilot_bit_samples=config.pilot_bit_samples,
        data_symbols=0,
        data_symbol_samples=config.symbol_samples[0],
    )


def _cell_channel(
    config: ExperimentConfig, snr_db: float
) -> tuple[NoisePowers, Callable[[np.random.Generator], ChannelState]]:
    """Resolve the channel law once per chunk: the cell's noise powers and a
    per-trial channel source (a fresh draw under fading, the fixed state of a
    static channel)."""
    noise = config.channel.noise_for_snr(snr_db, config.snr_reference)
    if config.channel.kind == "static":
        state = config.channel.static_state(noise)
        return noise, lambda rng: state
    return noise, lambda rng: draw_channel(rng, noise)


def _error_counts(
    config: ExperimentConfig, cell_index: int, start: int, stop: int
) -> np.ndarray:
    """Run estimation trials [start, stop) of one cell; count each signed error.

    Entry i counts the error i - N_p (|error| can never exceed N_p).
    """
    cell = _cells(config)[cell_index]
    noise, channel = _cell_channel(config, cell[0])
    fcfg = _frame_config(config, cell)
    bits = build_bit_sequence(fcfg)
    taus = np.asarray(config.tau_choices, dtype=np.int64)
    errors = np.empty(stop - start, dtype=np.int64)
    for i, trial in enumerate(range(start, stop)):
        rng = trial_rng(config.seed, cell_index, trial)
        tau = int(taus[rng.integers(taus.size)])
        ch = channel(rng)
        w = synthesize_received(bits, fcfg, ch, noise, rng)
        est = estimate_sto(collect_windows(apply_sto(w, tau), fcfg))
        errors[i] = estimation_error(tau, est.tau_hat)
    span = config.pilot_bit_samples
    return np.bincount(errors + span, minlength=2 * span + 1)


def _ber_chunk(
    config: ExperimentConfig, cell_index: int, start: int, stop: int
) -> tuple[int, int, int, int, int]:
    """Paired-trial error counts: (ideal, no_comp, comp, bits, redraws)."""
    cell = _cells(config)[cell_index]
    noise, channel = _cell_channel(config, cell[0])
    fcfg = _frame_config(config, cell)
    taus = np.asarray(config.tau_choices, dtype=np.int64)
    k = fcfg.data_symbols
    e_ideal = e_nocomp = e_comp = redraws = 0
    for trial in range(start, stop):
        rng = trial_rng(config.seed, cell_index, trial)
        tau = int(taus[rng.integers(taus.size)])
        while True:
            ch = channel(rng)
            if not _degenerate(ch):
                break
            redraws += 1
        payload = rng.integers(0, 2, size=k)
        bits = build_bit_sequence(fcfg, payload)
        w = synthesize_received(bits, fcfg, ch, noise, rng)
        params = DetectorParams.from_powers(fcfg.data_symbol_samples, ch.p0, ch.p1)

        ideal_bits, _ = _detect_bits(w, fcfg, params, 0)
        w_sto = apply_sto(w, tau)
        nocomp_bits, _ = _detect_bits(w_sto, fcfg, params, 0)
        est = estimate_sto(collect_windows(w_sto, fcfg))
        comp_bits, _ = _detect_bits(w_sto, fcfg, params, est.tau_hat)

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


def run_mae(config: ExperimentConfig) -> MaeResult:
    """Mean absolute estimation error per (SNR, L) cell."""
    if config.kind != "mae_vs_snr":
        raise ValueError(f"config kind is {config.kind!r}, expected 'mae_vs_snr'")
    grouped = _execute(config)
    span = config.pilot_bit_samples
    abs_errors = np.abs(np.arange(-span, span + 1))
    rows = []
    for cell, chunks in zip(_cells(config), grouped):
        abs_sum = int(abs_errors @ np.sum(chunks, axis=0))
        rows.append((cell[0], cell[1], abs_sum / config.trials, config.trials))
    return MaeResult(rows=tuple(rows))


def run_error_hist(config: ExperimentConfig) -> ErrorHistResult:
    """Empirical pmf of the signed estimation error at one (SNR, L) point."""
    if config.kind != "error_hist":
        raise ValueError(f"config kind is {config.kind!r}, expected 'error_hist'")
    grouped = _execute(config)
    counts = np.sum(grouped[0], axis=0)
    span = config.pilot_bit_samples
    probs = {
        int(eps - span): int(c) / config.trials
        for eps, c in enumerate(counts)
        if c > 0
    }
    return ErrorHistResult(probabilities=probs, trials=config.trials)


def run_ber(config: ExperimentConfig) -> BerResult:
    """Paired BER under no compensation, estimated compensation, and ideal sync."""
    if config.kind != "ber_compare":
        raise ValueError(f"config kind is {config.kind!r}, expected 'ber_compare'")
    grouped = _execute(config)
    rows = []
    for cell, chunks in zip(_cells(config), grouped):
        e_ideal = sum(c[0] for c in chunks)
        e_nocomp = sum(c[1] for c in chunks)
        e_comp = sum(c[2] for c in chunks)
        bits = sum(c[3] for c in chunks)
        rows.append(
            (cell[0], cell[1], e_nocomp / bits, e_comp / bits, e_ideal / bits, bits)
        )
    return BerResult(rows=tuple(rows))


# kind -> (chunk function each task runs, runner that aggregates the chunks)
_KINDS = {
    "mae_vs_snr": (_error_counts, run_mae),
    "error_hist": (_error_counts, run_error_hist),
    "ber_compare": (_ber_chunk, run_ber),
}


def run_experiment(config: ExperimentConfig):
    """Dispatch on the experiment kind; optionally write the CSV."""
    result = _KINDS[config.kind][1](config)
    if config.out_path:
        write_csv(result.to_csv(), config.out_path)
    return result


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
