"""Seeded Monte Carlo experiment runners.

Three experiment kinds are supported: mean-absolute-error of the timing
estimate versus SNR, the empirical distribution of the estimation error,
and a paired bit-error-rate comparison (no compensation / estimated
compensation / ideal synchronization).

The run's frames (trials) are numbered cell by cell, and each task is one
batch of ``BLOCK`` consecutive frames, which may span several grid cells.
It owns the substream derived from the root seed and the batch counter.
Every kind runs one prologue on it, one array for the whole batch at a
time: the frames' offsets, then their on/off powers (the static state, or
one fading draw per frame with each degenerate draw redrawn), each at its
own cell's noise power, then the kind's sampler, cell by cell in frame
order, whose estimates and bit errors are counted per cell.  No experiment
kind synthesizes samples or loops over its trials.

Every statistic here reads the received samples only through the energies
of stretches of them.  Under one channel per frame a sample of bit b is
CN(0, p_b), so its energy is p_b * Exp(1), and the energy of m samples
inside one bit is p_b * Gamma(m, 1), independent of every disjoint stretch.
The batches draw those energies directly.

An MAE or histogram frame has no payload, and its trial is only the pilot
scan, which reads the pilot through its N_p column power sums (``scan_sto``,
once per batch; L only scales the profile, so the scan does not read it).
Column j of the L "1" windows sums L samples, i.e. p * Gamma(L, 1): p = p1
where the offset window still covers its "1" bit (0 <= tau + j < N_p), and
p = p0 where it reads a neighbour.  That is exact: every "1" window's
neighbours are "0" bits (the pilot "0" before it, and the pilot "0" or the
guard bit after it), and no two windows share a sample, because the
windows lie 2 N_p apart and |tau| < N_p/2.

A BER frame adds K payload bits and a trailing guard "0".  Its trial reads
the L pilot rows and three windows per payload bit: the ideal one (the
bit's own N samples), the offset one (clock tau) and the compensated one
(clock r = tau - tau_hat).  Rows 0..L-2 are drawn as p * Gamma(L-1) column
sums, as above.  The last pilot pair and payload bit 0 are drawn one
p * Exp(1) per sample, because several readers share their samples:

(a) for tau > 0, the last row reads bit 0's first tau samples, and so do
    bit 0's ideal window and, when 0 <= r < tau, its compensated one;
(b) for r < 0, the compensated window of bit 0 reads the last |r| samples
    of the last pilot "1" bit, which the last row may read too: the row
    covers [tau, N_p) of that bit for tau > 0 and [0, N_p + tau) for
    tau < 0.  When |r| > N the windows of bits 0 and 1 both reach into it.

The last row is read from those samples and the cell's frames are scanned
at once.  Bits 1..K-1 and the guard bit are then cut where the two clocks
cross them, at tau mod N and r mod N, into three segments (some empty),
each drawn as p_b * Gamma(length).  The draws are scaled straight into one
array and cumulated in place.  Every window ends on a drawn sample or a
cut, so its energy is the difference of the cumulative energies at its two
ends, gathered by flat index, and the windows keep every sample they share.
That index arithmetic needs every clock in (-N_p, N] (the scan keeps
r > -N_p, the config bounds clocks by N): no window starts before the last
pilot "1" bit or ends after the guard bit; floor(clock / N) may be -2.
Each window is decided against its trial's threshold.  The sample-level
path (``synthesize_received``, ``estimate_sto``, ``detect_frame``) stays
in the library, and the tests hold the batch samplers to it.

A run whose estimated inline time, its kind's cost per batch times its
batch count, is below ``FORK_BREAK_EVEN_US`` runs in the calling process.
A larger one uses one process per task, capped by ``threads`` and the
usable CPUs: its batches are cut into contiguous shares of equal count
(every batch but the last is full, so the shares balance trials too), the
calling process runs the last share, and a forked child runs each other
one.  A share sums its batches' counts into one table as it runs, and a
child pickles that table back over a pipe, so a run's memory does not grow
with its length.  A child that ends without a result, killed by a signal
for instance, fails the run, and no child outlives it.  Without
``os.fork`` every task runs in this process.  Batches do not depend on the
worker count, and all aggregation is over integer accumulators, so results
are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import pickle
import signal
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .detector import _decide, ed_threshold
from .estimator import scan_sto
from .frame import FrameConfig
from .signal_model import ChannelModel, ChannelState, draw_channel, trial_rng

# perfbench/spans.py times the layers by wrapping trial_rng, draw_channel and
# _run_task here, frame.gen_cgn_block, DetectorParams.from_powers, and the
# sample-level names below, which the engine no longer calls; removing or
# renaming any of them fails the traced benchmark.
from .detector import detect_frame as _detect_bits  # noqa: F401
from .estimator import collect_windows, estimate_sto  # noqa: F401
from .frame import apply_sto, build_bit_sequence, synthesize_received  # noqa: F401

# every experiment frame has one wake-up bit ahead of the pilot
PREAMBLE_BITS = 1

# frames per task (a batch); fixed, so that the batches and their substreams
# do not depend on the worker count
BLOCK = 256

# estimated inline µs below which a run forks no worker: a child costs 5-10 ms
# to fork and fault in (BENCH_22.json; per-batch fits: BENCH_23/27.json)
FORK_BREAK_EVEN_US = 24_000

# frames whose on/off powers lie closer than this relative gap have no
# contrast to detect, and the law leaves them out by redrawing their fading
# channel; ``ed_threshold`` stays accurate far below it (it refuses only p0 == p1)
NEAR_DEGENERATE_REL = 1e-9


def _degenerate(ch: ChannelState):
    """Whether the on/off powers have no contrast to detect (elementwise)."""
    return np.abs(ch.p1 - ch.p0) < NEAR_DEGENERATE_REL * np.maximum(ch.p0, ch.p1)


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
        tau_choices: candidate timing offsets, each given once; each trial
            draws uniformly from this set (a singleton pins the offset).
        seed: non-negative root seed for the substream derivation.
        threads: the most processes to use, a positive integer; the default
            is the usable CPUs.  A run too small to pay for a forked worker
            stays in the calling process, which also works one share.
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
        # a trial draws uniformly from the set: a repeated offset would weigh double
        repeated = [tau for tau, count in Counter(self.tau_choices).items() if count > 1]
        if repeated:
            raise ValueError(f"tau_choices repeats the offset {repeated[0]}")
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
        cells = _cells(self)
        # the run reads this table; an attribute but no field, so equality,
        # repr and dataclasses.replace ignore it
        object.__setattr__(self, "_cell_table", cells)
        for snr, _, frame, noise in cells:
            for tau in self.tau_choices:
                frame.check_tau(tau)
                frame.check_clock(tau)
            if self.kind == "ber_compare":
                frame.check_clock(worst)
            if self.channel.kind != "static":
                continue
            # every trial sees this one state, which cannot be redrawn
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


def _cells(config: ExperimentConfig) -> tuple[tuple[float, int, FrameConfig, float], ...]:
    """(SNR, swept value, frame, noise power) for each grid cell, in row order:
    the BER experiment sweeps N at its one L, the others sweep L with no
    payload; an axis that a kind does not sweep holds one value (see _KINDS)."""
    ber, span = config.kind == "ber_compare", config.pilot_bit_samples
    k = config.data_symbols if ber else 0
    # resolving the noise power also checks the SNR's range and reference
    return tuple(
        (snr, n if ber else pairs, FrameConfig(PREAMBLE_BITS, pairs, span, k, n),
         config.channel.noise_for_snr(snr, config.snr_reference))
        for snr in config.snr_grid_db for pairs in config.pilot_pairs for n in config.symbol_samples
    )


def _run_task(args) -> np.ndarray:
    """Run one batch of frames; every experiment kind runs this task.

    ``args`` is (config, batch).  The run's frames are numbered cell by cell
    of the config's cell table, and batch b holds frames b * BLOCK onwards,
    up to ``BLOCK`` of them, from one cell or several.

    Returns int64 counts, one row per cell the batch reaches, the first being
    cell b * BLOCK // trials: entry i < 2 N_p + 1 counts the signed
    estimation error i - N_p (|error| can never exceed N_p), and the last
    three entries are the payload bit errors under ideal sync, no
    compensation and the estimated compensation (zero for a frame without
    payload).
    """
    config, batch = args
    cells, trials, span = config._cell_table, config.trials, config.pilot_bit_samples
    start = batch * BLOCK
    stop = min(start + BLOCK, len(cells) * trials)
    first, last = start // trials, (stop - 1) // trials
    reached = cells[first : last + 1]
    n = stop - start
    # where each reached cell's frames begin and end within the batch
    edges = [0] + [c * trials - start for c in range(first + 1, last + 1)] + [n]
    sizes = [b - a for a, b in zip(edges, edges[1:])]
    rng = trial_rng(config.seed, batch)
    tau = np.asarray(config.tau_choices)[rng.integers(len(config.tau_choices), size=n)]
    noise = np.repeat([cell_noise for *_, cell_noise in reached], sizes)
    p0, p1 = _channel_powers(rng, config.channel, noise)
    if config.kind == "ber_compare":
        # N differs between cells, so each cell's frames are drawn apart
        tau_hat = np.empty(n, dtype=np.int64)
        bit_errors = np.empty((n, 3), dtype=np.int64)
        for (_, _, frame, _), a, b in zip(reached, edges, edges[1:]):
            tau_hat[a:b], bit_errors[a:b] = _payload_frames(rng, frame, tau[a:b], p0[a:b], p1[a:b])
        bit_errors = np.add.reduceat(bit_errors, edges[:-1], axis=0)
    else:
        pairs = [frame.pilot_pairs for _, _, frame, _ in reached]
        tau_hat = scan_sto(_pilot_sums(rng, pairs, edges, tau, span, p0, p1))
        bit_errors = np.zeros((len(reached), 3), dtype=np.int64)
    width = 2 * span + 1
    cell = np.repeat(np.arange(len(reached)) * width, sizes)
    errors = np.bincount(cell + tau - tau_hat + span, minlength=len(reached) * width)
    return np.concatenate([errors.reshape(-1, width), bit_errors], axis=1)


def _channel_powers(rng, channel, noise) -> tuple[np.ndarray, np.ndarray]:
    """On/off powers as (n, 1) columns for frames of noise powers ``noise``,
    shape (n,): the static state (which the config checks), or one fading
    draw per frame, degenerate ones redrawn."""
    if channel.kind == "static":
        ch = channel.static_state(noise)
        return ch.p0[:, None], ch.p1[:, None]
    ch = draw_channel(rng, noise, noise.size)
    p0, p1 = ch.p0, ch.p1
    redraw = np.flatnonzero(_degenerate(ch))
    while redraw.size:
        ch = draw_channel(rng, noise[redraw], redraw.size)
        p0[redraw], p1[redraw] = ch.p0, ch.p1
        redraw = redraw[_degenerate(ch)]
    return p0[:, None], p1[:, None]


def _pilot_sums(rng, rows, edges, tau, span, p0, p1) -> np.ndarray:
    """Column power sums of the frames' pilot rows, shape (n, N_p), frames
    edges[i] to edges[i + 1] having ``rows[i]`` rows: column j is
    p * Gamma(rows), with p = p1 where the offset window still covers its
    "1" bit (0 <= tau + j < N_p), else p0."""
    sums = np.empty((tau.size, span))
    for count, a, b in zip(rows, edges, edges[1:]):
        rng.standard_gamma(count, out=sums[a:b])
    shifted = tau[:, None] + np.arange(span)
    inside = (shifted >= 0) & (shifted < span)
    sums *= np.where(inside, p1, p0)
    return sums


def _payload_frames(rng, frame, tau, p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """Draw one cell's frames of a batch, with payload, through their window
    energies and decide them (see the module docstring).  Returns the offset
    estimates, shape (n,), and the payload bit errors under ideal sync, no
    compensation and the estimated compensation, shape (n, 3)."""
    n, pairs, span = tau.size, frame.pilot_pairs, frame.pilot_bit_samples
    k, width = frame.data_symbols, frame.data_symbol_samples
    # energy[i, 1 + m] holds trial i's m-th draw from position -2 N_p: one per
    # sample through bit 0 (m < head), then three segments per later bit.
    # Sample p sits at flat[rows[i] + 1 + p]; once cumulated, flat[rows[i] + p]
    # is the energy before position p.
    head = 2 * span + width
    energy = np.empty((n, 1 + head + 3 * k))
    energy[:, 0] = 0.0
    flat, rows = energy.ravel(), np.arange(2 * span, energy.size, energy.shape[1])
    payload = rng.integers(0, 2, size=(n, k)) == 1
    sums = _pilot_sums(rng, [pairs - 1], [0, n], tau, span, p0, p1)
    near, drawn = rng.standard_exponential((n, head)), energy[:, 1 : 1 + head]
    np.multiply(near[:, :span], p0, out=drawn[:, :span])
    np.multiply(near[:, span : 2 * span], p1, out=drawn[:, span : 2 * span])
    np.multiply(near[:, 2 * span :], np.where(payload[:, :1], p1, p0), out=drawn[:, 2 * span :])
    del near  # the segments below reuse its memory
    # row L-1 reads positions tau + j - N_p: the pilot "0", its "1" or bit 0
    sums += flat.take((rows + tau + 1 - span)[:, None] + np.arange(span))
    tau_hat = scan_sto(sums)
    # bits 1..K-1 and the guard bit are cut where the offset (tau) and the
    # compensated (tau - tau_hat) clocks cross them: three segments each
    low, high = np.sort([tau % width, (tau - tau_hat) % width], axis=0)
    segments = rng.standard_gamma(np.stack([low, high - low, width - high], 1)[:, None], (n, k, 3))
    later, power = energy[:, 1 + head :].reshape(n, k, 3), np.where(payload[:, 1:], p1, p0)
    for j in range(3):  # a segment of every bit at a time runs faster than all at once
        np.multiply(segments[:, :-1, j], power, out=later[:, :-1, j])
    np.multiply(segments[:, -1], p0, out=later[:, -1])
    del segments, power  # the window step below sets the batch's peak memory
    np.cumsum(energy, axis=1, out=energy)  # a window's energy: the difference at its ends
    threshold = ed_threshold(width, p0, p1)
    # clocks lie in (-N_p, N], so only a clock's first `early` ends can lie in bit 0
    early, steps = min(k + 1, (width + span - 1) // width + 1), 3 * np.arange(k + 1)

    def ends(clock):
        # a clock crosses every later bit at the same offset: cut 0, 1 or 2
        whole, offset = np.divmod(clock, width)
        base = rows + 3 * whole + (offset > 0) + (offset > low) + (width - 3)
        index, inside = base[:, None] + steps, clock[:, None] + width * np.arange(early)
        index[:, :early] = np.where(inside <= width, rows[:, None] + inside, index[:, :early])
        return index

    def errors(index):
        at = flat.take(index)
        return (_decide(at[:, 1:] - at[:, :-1], threshold, p0, p1) != payload).sum(axis=1)

    # the ideal clock's ends are fixed: bit 0's start and end, then each cut 0
    ideal = errors(rows[:, None] + np.where(steps, steps + width - 3, 0))
    return tau_hat, np.stack([ideal, errors(ends(tau)), errors(ends(tau - tau_hat))], axis=1)


def _execute(config: ExperimentConfig) -> np.ndarray:
    """Run every batch of the run's frames; returns the counts summed per
    cell, one row per cell of the config's cell table (see ``_run_task``)."""
    batches = -(-len(config._cell_table) * config.trials // BLOCK)
    affinity = getattr(os, "sched_getaffinity", None)  # the CPUs this process may use
    processes = _processes(config, batches, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if processes == 1 or not hasattr(os, "fork"):
        return _run_share(config, range(batches))
    # every batch but the last is full, so an even cut by count balances trials
    cuts = [batches * share // processes for share in range(processes + 1)]
    return _run_forked(config, [range(a, b) for a, b in zip(cuts, cuts[1:])])


def _processes(config: ExperimentConfig, batches: int, cores: int) -> int:
    """Processes that run the config's ``batches`` tasks with ``cores`` usable
    CPUs: one while the estimated inline time is below ``FORK_BREAK_EVEN_US``,
    else one per task, capped by ``threads`` and ``cores``.  Reads no clock."""
    if _KINDS[config.kind][2] * batches < FORK_BREAK_EVEN_US:
        return 1
    return min(config.threads or cores, batches, cores)


def _run_share(config: ExperimentConfig, batches: range) -> np.ndarray:
    """Run the batches of one share; returns their counts summed per cell,
    one row per cell of the config's cell table."""
    # 2 N_p + 1 error counts and 3 bit-error counts per cell (see _run_task)
    counts = np.zeros((len(config._cell_table), 2 * config.pilot_bit_samples + 4), dtype=np.int64)
    for batch in batches:
        first = batch * BLOCK // config.trials
        # the module global, so that a wrapper installed on it runs here too
        output = _run_task((config, batch))
        counts[first : first + len(output)] += output
    return counts


def _run_forked(config: ExperimentConfig, shares: list[range]) -> np.ndarray:
    """Run the last share here and each other share in a child forked for
    it; returns the counts of every share summed.  A child's exception is
    raised here, its traceback added as a note, and a child that ends with no
    result raises RuntimeError.  Every child is reaped, killed first if it
    still runs, and every pipe closed, also when this process's share raises.
    """
    children = []  # (pid, read end of its pipe) until the child is reaped
    try:
        for share in shares[:-1]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(config, share, write_end)  # never returns
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        counts = _run_share(config, shares[-1])
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0 or not data:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"worker process {pid} {how} and returned no result")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            counts += result
        return counts
    finally:
        for pid, pipe in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # it has ended; some systems refuse a zombie
                pass
            os.waitpid(pid, 0)


def _serve_share(config: ExperimentConfig, share: range, write_end: int) -> None:
    """Run one share in a forked child, pickle its counts or its exception to
    ``write_end``, and leave without running the parent's exit handlers or
    flushing the stdio buffers copied from it."""
    code = 1
    try:
        try:
            result = _run_share(config, share)
        except BaseException as exc:
            note = f"in a worker process:\n{traceback.format_exc()}"
            exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
            result = exc
        with open(write_end, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def _mae(config: ExperimentConfig, counts: np.ndarray) -> MaeResult:
    """Mean absolute estimation error per (SNR, L) cell."""
    span = config.pilot_bit_samples
    abs_errors = np.abs(np.arange(-span, span + 1))
    rows = []
    for (snr, pairs, _, _), c in zip(config._cell_table, counts):
        abs_sum = int(abs_errors @ c[: 2 * span + 1])
        rows.append((snr, pairs, abs_sum / config.trials, config.trials))
    return MaeResult(rows=tuple(rows))


def _error_hist(config: ExperimentConfig, counts: np.ndarray) -> ErrorHistResult:
    """Empirical pmf of the signed estimation error at one (SNR, L) point."""
    span = config.pilot_bit_samples
    probs = {
        eps - span: int(c) / config.trials
        for eps, c in enumerate(counts[0][: 2 * span + 1])
        if c > 0
    }
    return ErrorHistResult(probabilities=probs)


def _ber(config: ExperimentConfig, counts: np.ndarray) -> BerResult:
    """Paired BER under no compensation, estimated compensation, and ideal sync."""
    bits = config.trials * config.data_symbols
    rows = []
    for (snr, n, _, _), c in zip(config._cell_table, counts):
        e_ideal, e_nocomp, e_comp = (int(e) for e in c[-3:])
        rows.append((snr, n, e_nocomp / bits, e_comp / bits, e_ideal / bits, bits))
    return BerResult(rows=tuple(rows))


# kind -> (aggregator of the summed counts per cell, the config fields the kind does
# not sweep and so takes one value of, inline µs per batch of BLOCK frames, as
# fitted per task plus per trial: 130 + 256 * 1.6 and 375 + 256 * 11.5)
_KINDS = {
    "mae_vs_snr": (_mae, ("symbol_samples",), 540),
    "error_hist": (_error_hist, ("snr_grid_db", "pilot_pairs", "symbol_samples"), 540),
    "ber_compare": (_ber, ("pilot_pairs",), 3320),
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
