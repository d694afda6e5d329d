"""Experiment runners, CSV output, determinism, and the CLI."""

import argparse
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ambcsync import (
    ChannelModel,
    ChannelState,
    DetectorParams,
    ExperimentConfig,
    FrameConfig,
    Waveform,
    apply_sto,
    build_bit_sequence,
    collect_windows,
    detect_frame,
    draw_channel,
    estimate_sto,
    run_experiment,
    synthesize_received,
    trial_rng,
    write_csv,
)
from ambcsync import cli, harness
from ambcsync.cli import cli_main
from ambcsync.signal_model import gen_cgn_block
import oracles


def mae_config(**kw):
    base = dict(
        kind="mae_vs_snr",
        snr_grid_db=(5.0, 10.0),
        trials=400,
        pilot_pairs=(8, 16),
        pilot_bit_samples=16,
        tau_choices=(-5, 5),
        seed=31,
        threads=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        mae_config(kind="nope")
    with pytest.raises(ValueError):
        mae_config(trials=0)
    with pytest.raises(ValueError):
        mae_config(tau_choices=())
    with pytest.raises(ValueError):
        mae_config(tau_choices=(-8,))  # 2|tau| == N_p
    # a trial draws uniformly from the offsets, so a repeated one would weigh double
    with pytest.raises(ValueError, match="repeats the offset 5"):
        mae_config(tau_choices=(-5, 5, 5))
    with pytest.raises(ValueError):
        mae_config(tau_choices=(5,), symbol_samples=(4,))  # guard too short
    with pytest.raises(ValueError, match="one symbol_samples"):
        mae_config(tau_choices=(5,), symbol_samples=(50, 4))  # only a BER run sweeps N
    with pytest.raises(ValueError, match="seed"):
        mae_config(seed=-1)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            mae_config(threads=threads)
    mae_config(threads=None)
    # integers only: a float count, seed or offset used to truncate or fail mid-run
    for field, value in (
        ("trials", 2.5), ("pilot_pairs", (8.5,)), ("tau_choices", (-5.0, 5)),
        ("threads", 1.5), ("seed", 1.5), ("pilot_bit_samples", 16.0),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            mae_config(**{field: value})
    numpy_ints = mae_config(
        trials=np.int64(20), pilot_pairs=(np.int32(8), 16), tau_choices=(np.int64(-5), 5),
        seed=np.uint8(31), threads=np.int16(1),
    )
    assert numpy_ints == mae_config(trials=20)
    assert type(numpy_ints.trials) is int and type(numpy_ints.pilot_pairs[0]) is int
    # a grid axis is a non-empty sequence of numbers; a bare number, a string
    # or a non-number inside is refused with the field's name, not a TypeError
    for field, value in (
        ("snr_grid_db", 5.0), ("snr_grid_db", ("x",)), ("snr_grid_db", (None,)),
        ("pilot_pairs", 30), ("tau_choices", None), ("symbol_samples", "50"),
    ):
        with pytest.raises(ValueError, match=field):
            mae_config(**{field: value})
    # any sequence is stored as a tuple, of floats for the SNR grid
    listed = mae_config(snr_grid_db=[5, np.float32(10.0)], pilot_pairs=np.array([8, 16]))
    assert listed == mae_config() and hash(listed) == hash(mae_config())
    assert type(listed.snr_grid_db) is tuple and type(listed.snr_grid_db[0]) is float
    with pytest.raises(ValueError):
        ExperimentConfig(
            kind="error_hist", snr_grid_db=(5.0, 10.0), trials=10, pilot_pairs=(8,),
            pilot_bit_samples=16, tau_choices=(-5,),
        )
    with pytest.raises(ValueError):
        ExperimentConfig(
            kind="ber_compare", snr_grid_db=(5.0,), trials=10, pilot_pairs=(8, 16),
            pilot_bit_samples=16, tau_choices=(-5,),
        )
    with pytest.raises(ValueError):
        ExperimentConfig(
            kind="ber_compare", snr_grid_db=(5.0,), trials=10, pilot_pairs=(8,),
            pilot_bit_samples=16, tau_choices=(-5,), data_symbols=0,
        )
    # a BER frame's guard bit absorbs the latest compensated clock,
    # max(tau) + ceil(N_p/2) - 1 = -5 + 8 - 1 = 2 samples, and no less
    ber = dict(
        kind="ber_compare", snr_grid_db=(0.0,), trials=10, pilot_pairs=(2,),
        pilot_bit_samples=16, data_symbols=5, tau_choices=(-5,),
    )
    ExperimentConfig(**ber, symbol_samples=(2,))
    with pytest.raises(ValueError, match="clock offset 2"):
        ExperimentConfig(**ber, symbol_samples=(1,))


def test_degenerate_static_channel_rejected():
    # a static channel never changes, so equal on/off powers could not be
    # redrawn away: the config is refused before any trial runs
    for kind_kw in (
        dict(),
        dict(kind="ber_compare", pilot_pairs=(8,), symbol_samples=(12,), data_symbols=5),
    ):
        with pytest.raises(ValueError, match="equal on/off powers"):
            mae_config(channel=ChannelModel("static", rho=0.0), **kind_kw)
    # a backscatter path too weak to clear the redraw threshold at -30 dB
    with pytest.raises(ValueError, match="equal on/off powers at -30.0 dB"):
        mae_config(
            snr_grid_db=(10.0, -30.0), channel=ChannelModel("static", rho=1e-8),
            snr_reference="mean_received",
        )
    mae_config(snr_grid_db=(10.0,), channel=ChannelModel("static", rho=1e-8))


def test_channel_fields_validation():
    with pytest.raises(ValueError, match="ChannelModel"):
        mae_config(channel="static")
    with pytest.raises(ValueError, match="SNR reference"):
        mae_config(snr_reference="backscatter")


@pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
def test_non_finite_snr_rejected(snr):
    with pytest.raises(ValueError, match="finite"):
        mae_config(snr_grid_db=(5.0, snr))


@pytest.fixture
def forked(monkeypatch):
    """Fork workers for runs of any size: the configs here are too small to
    pay for a worker, and would otherwise run inline."""
    monkeypatch.setattr(harness, "FORK_BREAK_EVEN_US", 0)


@pytest.fixture
def inline_workers(monkeypatch, forked):
    """Run the tasks of every would-be forked run inline, on a machine of 8
    cores, 4 of which this process may run on, whatever the run's size;
    returns the (processes, tasks) of each such run."""
    runs = []

    def run_inline(config, shares):
        runs.append((len(shares), shares[-1].stop))
        return sum(harness._run_share(config, share) for share in shares)

    monkeypatch.setattr(harness, "_run_forked", run_inline)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 5}, raising=False)
    return runs


def counts_of(config):
    """Each cell's summed counts, as ``run_experiment`` aggregates them."""
    return harness._execute(config)


def test_resolve_threads(inline_workers):
    # one cell of 4 * BLOCK + 1 frames is 5 batches, 5 tasks
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=4 * harness.BLOCK + 1)
    # an explicit count caps the processes; the default is one per core this
    # process may run on, not one per core of the machine
    run_experiment(replace(config, threads=3))
    run_experiment(replace(config, threads=None))
    assert inline_workers == [(3, 5), (4, 5)]
    for explicit in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            replace(config, threads=explicit)


def test_pool_size_capped_by_tasks_and_cores(inline_workers):
    pools = inline_workers
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=harness.BLOCK)
    serial = run_experiment(config)
    # one block is one task, which forks no worker whatever the requested count
    assert run_experiment(replace(config, threads=64)) == serial
    assert pools == []
    # 64 requested workers, 3 blocks: 3 tasks need only 3 processes
    config = replace(config, trials=3 * harness.BLOCK)
    assert run_experiment(replace(config, threads=64)) == run_experiment(config)
    # 10 blocks: 10 tasks, but one process per core, requested or not
    config = replace(config, trials=10 * harness.BLOCK)
    assert run_experiment(replace(config, threads=64)) == run_experiment(config)
    assert run_experiment(replace(config, threads=None)) == run_experiment(config)
    assert pools == [(3, 3), (4, 10), (4, 10)]


@pytest.mark.parametrize(
    "sizes",
    [
        [256] * 9 + [96],  # ber_paired's benchmark grid: 8 cells of 300 trials
        [256] * 4 + [56],  # mae_quick_grid's: 27 cells of 40 trials
        [256] * 23 + [112],  # mae_sweep's: 6 cells of 1000 trials
        [256] * 40 + [255],  # many batches
        [256, 256],  # full batches only
        [256, 256, 256, 1],
    ],
)
def test_shares_split_tasks_contiguously_by_trials(monkeypatch, forked, sizes):
    # a run of sum(sizes) frames has batches of these sizes; a spy in place
    # of the forked run records the shares of every process count it can
    # get, on a machine of 64 cores
    seen = []

    def record(config, shares):
        seen.append(shares)
        return harness._run_share(config, range(0))  # all-zero counts

    monkeypatch.setattr(harness, "_run_forked", record)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=sum(sizes))
    assert sizes == [min(harness.BLOCK, sum(sizes[i:])) for i in range(len(sizes))]
    for count in range(2, len(sizes) + 1):
        for _ in range(2):
            counts_of(replace(config, threads=count))
        shares, again = seen[-2:]
        assert shares == again and len(shares) == count and all(shares)
        # every batch exactly once, in order: the shares are contiguous
        assert [i for share in shares for i in share] == list(range(len(sizes)))
        trials = [sum(sizes[i] for i in share) for share in shares]
        assert max(trials) - min(trials) <= max(sizes)
    # one process runs inline and forks no share
    counts_of(replace(config, threads=1))
    assert len(seen) == 2 * (len(sizes) - 1)


# The benchmark's workloads and criterion 1's run, written out, at 2 usable
# cores: the small MAE runs are estimated below the break-even and stay
# inline, the BER grid and the 100k-trial run fork
FORK_DECISIONS = [
    (dict(kind="mae_vs_snr", snr_grid_db=tuple(2.5 * i for i in range(9)), trials=40,
          pilot_pairs=(20, 30, 40), pilot_bit_samples=30, tau_choices=(-10, 10)), 1),
    (dict(kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=1000, pilot_pairs=(20, 30, 40),
          pilot_bit_samples=30, tau_choices=(-10, 10)), 1),
    (dict(kind="ber_compare", snr_grid_db=(5.0, 10.0, 15.0, 20.0), trials=300,
          pilot_pairs=(30,), pilot_bit_samples=30, symbol_samples=(50, 100), data_symbols=50,
          tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11))), 2),
    (dict(kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=100_000,
          pilot_pairs=(20, 30, 40), pilot_bit_samples=30, tau_choices=(-10, 10), seed=101,
          channel=ChannelModel("static", rho=0.5), snr_reference="mean_received"), 2),
]


@pytest.mark.parametrize(
    "fields, processes", FORK_DECISIONS,
    ids=["mae_quick_grid", "mae_sweep", "ber_paired", "criterion_1"],
)
def test_fork_decision_is_a_function_of_the_config(fields, processes):
    config = ExperimentConfig(**fields)
    batches = -(-len(config._cell_table) * config.trials // harness.BLOCK)
    assert harness._processes(config, batches, 2) == processes
    assert [harness._processes(config, batches, 2) for _ in range(5)] == [processes] * 5
    # threads caps the count: one thread is one process on any machine
    for cores in (1, 2, 64):
        assert harness._processes(replace(config, threads=1), batches, cores) == 1
    assert harness._processes(config, batches, 1) == 1


# ------------------------------------------------------------- worker processes

# Each case runs in a fresh interpreter with a time limit, so that a run that
# hangs on a lost worker fails its test instead of stalling the suite.  The
# interpreter may use two cores and forks for runs of any size, so a run of
# several blocks works one share and forks one worker for the other, and it
# checks after each run that no worker process or pipe is left.
WORKER_PRELUDE = """
import os, signal, sys, time
from ambcsync import ExperimentConfig, cli, harness, run_experiment

os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2
harness.FORK_BREAK_EVEN_US = 0
CONFIG = ExperimentConfig(
    kind="mae_vs_snr", snr_grid_db=(5.0,), trials=4 * harness.BLOCK, pilot_pairs=(8,),
    pilot_bit_samples=16, tau_choices=(-5, 5), threads=2,
)
run_task = harness._run_task


def pipes():
    # the pipes this process holds open; none are seen where there is no /proc
    found = set()
    for fd in os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else ():
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if target.startswith("pipe:"):
            found.add((fd, target))
    return found


PIPES = pipes()


def check_clean():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a worker process is left")
    assert pipes() == PIPES, "a pipe is left open"
"""

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="without os.fork runs are inline")


def run_worker_script(body, *argv):
    # stdout stays block-buffered: PYTHONUNBUFFERED would flush every print
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_PRELUDE + body, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@needs_fork
def test_worker_exception_reraised_with_its_type():
    run_worker_script("""
# batch 0 fails in the worker, while this process may still run its share
def fail_in_block_0(args):
    if args[-1] == 0:
        raise ValueError(f"planted failure in batch 0 of {len(args[0]._cell_table)} cell(s)")
    return run_task(args)

harness._run_task = fail_in_block_0
try:
    run_experiment(CONFIG)
except ValueError as exc:
    assert str(exc) == "planted failure in batch 0 of 1 cell(s)", exc
    assert "in a worker process" in exc.__notes__[-1], exc.__notes__
else:
    raise AssertionError("the run did not fail")
check_clean()
""")


@needs_fork
def test_exception_in_the_parents_share_reraised_and_the_worker_reaped():
    run_worker_script("""
# blocks 2 and 3 are this process's share; the worker is still busy on
# block 0 when block 3 fails, and ends only when killed or orphaned
PARENT = os.getpid()
ran_here = []

def fail_in_block_3(args):
    while os.getppid() == PARENT:
        time.sleep(0.01)
    ran_here.append(args[-1])
    if args[-1] == 3:
        raise KeyError("planted failure in block 3")
    return run_task(args)

harness._run_task = fail_in_block_3
try:
    run_experiment(CONFIG)
except KeyError as exc:
    assert exc.args == ("planted failure in block 3",), exc
    assert not getattr(exc, "__notes__", None), exc.__notes__
else:
    raise AssertionError("the run did not fail")
assert ran_here == [2, 3], ran_here
check_clean()
""")


@needs_fork
def test_killed_worker_fails_the_run_and_the_cli_exits_1(tmp_path):
    out = tmp_path / "mae.csv"
    proc = run_worker_script("""
# block 1 falls in the worker's share; blocks 2 and 3 run in this process
def die_in_block_1(args):
    if args[-1] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_task(args)

harness._run_task = die_in_block_1
try:
    run_experiment(CONFIG)
except RuntimeError as exc:
    assert f"killed by signal {int(signal.SIGKILL)}" in str(exc), exc
else:
    raise AssertionError("the run did not fail")
check_clean()
code = cli.cli_main(["mae", "--snr", "5", "--pairs", "8", "--np", "16", "--tau", "-5,5",
                     "--trials", "1024", "--threads", "2", "--out", sys.argv[1]])
assert code == 1 and not os.path.exists(sys.argv[1]), code
check_clean()
""", str(out))
    assert "error: worker process" in proc.stderr


@needs_fork
def test_unflushed_stdout_printed_once():
    # stdout is a pipe, so the first line is still in this process's buffer
    # when the workers fork with a copy of it
    proc = run_worker_script("""
print("before the run")
run_experiment(CONFIG)
print("after the run")
check_clean()
""")
    assert proc.stdout == "before the run\nafter the run\n"


# ------------------------------------------------------------------ determinism


def test_default_channel_fields_change_nothing():
    spelled = dict(channel=ChannelModel("rayleigh", rho=1.0), snr_reference="source")
    configs = (
        mae_config(trials=60),
        ExperimentConfig(
            kind="ber_compare", snr_grid_db=(10.0,), trials=30, pilot_pairs=(8,),
            pilot_bit_samples=16, symbol_samples=(12,), data_symbols=5,
            tau_choices=(-5, 5), seed=3, threads=1,
        ),
    )
    for config in configs:
        implicit = run_experiment(config).to_csv()
        assert run_experiment(replace(config, **spelled)).to_csv() == implicit


STATIC = dict(channel=ChannelModel("static", rho=0.5), snr_reference="mean_received")


@pytest.mark.usefixtures("forked")
@pytest.mark.parametrize(
    "trials, channel",
    [
        pytest.param(trials, channel, id=f"{name}{trials}")
        for name, channel in (("", {}), ("static-", STATIC))
        for trials in (harness.BLOCK - 1, harness.BLOCK, harness.BLOCK + 1, 3 * harness.BLOCK + 7)
    ],
)
def test_pilot_blocks_worker_independent(trials, channel):
    # every kind runs one task per batch of BLOCK frames, a partial batch
    # last; any number of processes gives the same output, on either
    # channel, and every trial counts once
    configs = (
        mae_config(trials=trials, snr_grid_db=(10.0,), **channel),
        mae_config(
            kind="error_hist", trials=trials, snr_grid_db=(10.0,), pilot_pairs=(8,), **channel
        ),
        mae_config(
            kind="ber_compare", trials=trials, snr_grid_db=(10.0,), pilot_pairs=(8,),
            symbol_samples=(12, 20), data_symbols=5, **channel,
        ),
    )
    for config in configs:
        outputs = {run_experiment(replace(config, threads=w)).to_csv() for w in (1, 2, 3, 5)}
        assert len(outputs) == 1, config.kind
        counts = counts_of(replace(config, threads=5))
        assert [int(c[:-3].sum()) for c in counts] == [trials] * len(counts), config.kind


def test_memory_flat_in_the_runs_length():
    # a share sums its batches' counts into one table as it runs, so a run's
    # memory does not grow with its length: the traced peak of a 2,000-batch
    # run against a 200-batch run's, one cell of N_p = 8 and L = 2, inline
    bound = 64 * 1024  # bytes, fixed before the first run
    config = mae_config(
        snr_grid_db=(10.0,), pilot_pairs=(2,), pilot_bit_samples=8, tau_choices=(-2, 2),
        trials=harness.BLOCK,
    )
    run_experiment(config)  # first-call allocations stay out of the comparison
    peaks = []
    for batches in (200, 2000):
        tracemalloc.start()
        try:
            run_experiment(replace(config, trials=batches * harness.BLOCK))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= bound, peaks


def test_cell_table_built_once_per_config(monkeypatch):
    # the config builds its cells to validate itself, and every run of it
    # reads that table
    built = []
    cells = harness._cells
    monkeypatch.setattr(harness, "_cells", lambda config: built.append(config) or cells(config))
    config = mae_config(trials=20)
    assert run_experiment(config) == run_experiment(config)
    assert built == [config]
    # the table is no field: equality, repr and replace do not see it
    assert "_cell_table" not in repr(config) and config == mae_config(trials=20)
    moved = replace(config, snr_grid_db=(7.0,))
    assert [(snr, pairs) for snr, pairs, _, _ in moved._cell_table] == [(7.0, 8), (7.0, 16)]


def test_single_trial_repeatable():
    config = mae_config(trials=1, snr_grid_db=(5.0,), pilot_pairs=(8,))
    assert run_experiment(config) == run_experiment(config)


def planted_first_draw(monkeypatch, planted):
    """Make the harness's first ``draw_channel`` call return ``planted`` and
    later calls draw as usual; returns the (size, noise powers) of every call."""
    calls = []

    def draw(rng, noise, n=None):
        calls.append((n, np.array(noise).tolist()))
        return planted if len(calls) == 1 else draw_channel(rng, noise, n)

    monkeypatch.setattr(harness, "draw_channel", draw)
    return calls


def test_degenerate_channels_redrawn_block_wide(monkeypatch):
    # trials 1 and 3 have on/off powers within NEAR_DEGENERATE_REL of each
    # other and are redrawn from the batch's stream, each at its own noise
    # power; the others keep theirs
    near = 1.0 + harness.NEAR_DEGENERATE_REL / 2
    calls = planted_first_draw(
        monkeypatch,
        ChannelState(np.array([1.0, 2.0, 1.0, 5.0]), np.array([3.0, 2.0, 0.5, 5.0 * near])),
    )
    noise = np.array([0.1, 0.2, 0.3, 0.4])
    p0, p1 = harness._channel_powers(trial_rng(4, 0), ChannelModel(), noise)
    assert calls[:2] == [(4, noise.tolist()), (2, [0.2, 0.4])]
    assert p0.shape == p1.shape == (4, 1)
    assert not harness._degenerate(ChannelState(p0, p1)).any()
    assert p0[[0, 2], 0].tolist() == [1.0, 1.0] and p1[[0, 2], 0].tolist() == [3.0, 0.5]
    assert p0[1, 0] != 2.0 and p0[3, 0] != 5.0


def test_pilot_blocks_redraw_degenerate_channels(monkeypatch):
    # a pilot-only batch resolves its powers as a BER batch does: a frame
    # with no on/off contrast is redrawn from the batch's stream before the
    # pilot sums are drawn, so the scan sees only the redrawn powers
    config = mae_config(kind="error_hist", trials=3, snr_grid_db=(10.0,), pilot_pairs=(8,))
    calls = planted_first_draw(
        monkeypatch, ChannelState(np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.0, 0.5]))
    )
    seen = []
    pilot_sums = harness._pilot_sums

    def recording(rng, rows, edges, tau, span, p0, p1):
        seen.append((p0.ravel().tolist(), p1.ravel().tolist()))
        return pilot_sums(rng, rows, edges, tau, span, p0, p1)

    monkeypatch.setattr(harness, "_pilot_sums", recording)
    (counts,) = harness._run_task((config, 0))
    assert [n for n, _ in calls] == [3, 1]
    ((p0, p1),) = seen
    assert p0[0::2] == [1.0, 4.0] and p1[0::2] == [3.0, 0.5]
    assert p0[1] != 2.0 and not harness._degenerate(ChannelState(p0[1], p1[1]))
    assert int(counts[:-3].sum()) == 3 and not counts[-3:].any()


# bounds of the stream-law tests below, fixed before their first runs:
# chi-square significance, and the largest two-sample z of a BER column
STREAM_LAW_P_MIN = 1e-3
STREAM_LAW_Z_MAX = 4.0


def frame_path_errors(config, synthesize, seed):
    """Error counts of ``config``'s one cell, one synthesized frame per trial:
    trial_rng, draw_channel, synthesize, apply_sto, collect_windows, estimate_sto."""
    (snr,), (pairs,), (n,) = config.snr_grid_db, config.pilot_pairs, config.symbol_samples
    frame = FrameConfig(harness.PREAMBLE_BITS, pairs, config.pilot_bit_samples, 0, n)
    bits = build_bit_sequence(frame)
    noise = config.channel.noise_for_snr(snr, config.snr_reference)
    taus = config.tau_choices
    counts = Counter()
    for trial in range(config.trials):
        rng = trial_rng(seed, 0, trial)
        tau = taus[rng.integers(len(taus))]
        if config.channel.kind == "static":
            ch = config.channel.static_state(noise)
        else:
            ch = draw_channel(rng, noise)
        w = synthesize(bits, frame, ch, rng)
        counts[tau - estimate_sto(collect_windows(apply_sto(w, tau))).tau_hat] += 1
    return counts


def homogeneity_p(*histograms):
    """Chi-square homogeneity p-value of error-count histograms; errors seen
    fewer than 10 times in all of them together share one bin."""
    errors = sorted(set().union(*histograms))
    table = np.array([[hist.get(e, 0) for e in errors] for hist in histograms])
    sparse = table.sum(axis=0) < 10
    if sparse.any():
        table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
    return stats.chi2_contingency(table)[1]


def test_pilot_batch_keeps_the_frame_law(monkeypatch):
    # error_hist trials draw the pilot's column power sums as scaled Gamma(L)
    # variates. A synthesized frame is sqrt(p_B) * z from one unit-power
    # block, and the law was first written (h + zeta*g*B)*s + w from a source
    # and a noise block. All three must give one error distribution:
    # chi-square homogeneity of the batch histogram against each frame path's,
    # 20,000 independent trials each, on both channels
    from_coefficients = ChannelState.from_coefficients

    def keep_coefficients(h, zeta, g, noise):
        ch = from_coefficients(h, zeta, g, noise)
        return SimpleNamespace(h=h, zeta=zeta, g=g, noise=noise, p0=ch.p0, p1=ch.p1)

    def two_block_law(bits, cfg, ch, rng):
        coeff = np.repeat(ch.h + ch.zeta * ch.g * bits, cfg.bit_durations())
        s = gen_cgn_block(coeff.size, rng)
        w = gen_cgn_block(coeff.size, rng) * np.sqrt(ch.noise)
        return Waveform(coeff * s + w, cfg)

    static = dict(channel=ChannelModel("static", rho=0.5), snr_reference="mean_received")
    for channel in ({}, static):
        config = ExperimentConfig(
            kind="error_hist", snr_grid_db=(10.0,), trials=20_000, pilot_pairs=(20,),
            pilot_bit_samples=30, tau_choices=(-10, 10), seed=1, threads=1, **channel,
        )
        pmf = run_experiment(config).probabilities
        batch = {e: round(p * config.trials) for e, p in pmf.items()}
        one_block = frame_path_errors(config, synthesize_received, seed=2)
        with monkeypatch.context() as m:
            m.setattr(ChannelState, "from_coefficients", keep_coefficients)
            two_block = frame_path_errors(config, two_block_law, seed=3)
        for name, frames in (("one block", one_block), ("two blocks", two_block)):
            p_value = homogeneity_p(batch, frames)
            assert p_value > STREAM_LAW_P_MIN, (channel, name, p_value)


def per_trial_ber_frames(config, seed):
    """The sample-level BER path, on ``config``'s one cell: every trial draws
    from its own (seed, cell, trial) substream, synthesizes its frame and
    estimates and detects it. Returns each frame's estimation error and its
    bit errors under ideal sync, no and estimated compensation."""
    (snr,), (pairs,), (n,) = config.snr_grid_db, config.pilot_pairs, config.symbol_samples
    frame = FrameConfig(harness.PREAMBLE_BITS, pairs, config.pilot_bit_samples, config.data_symbols, n)
    noise = config.channel.noise_for_snr(snr, config.snr_reference)
    taus = config.tau_choices
    eps, errors = np.zeros(config.trials, dtype=np.int64), np.zeros((config.trials, 3), dtype=np.int64)
    for trial in range(config.trials):
        rng = trial_rng(seed, 0, trial)
        tau = taus[rng.integers(len(taus))]
        if config.channel.kind == "static":
            ch = config.channel.static_state(noise)
        else:
            ch = draw_channel(rng, noise)
        while harness._degenerate(ch):
            ch = draw_channel(rng, noise)
        payload = rng.integers(0, 2, size=frame.data_symbols)
        w = synthesize_received(build_bit_sequence(frame, payload), frame, ch, rng)
        w_sto = apply_sto(w, tau)
        tau_hat = estimate_sto(collect_windows(w_sto)).tau_hat
        eps[trial] = tau - tau_hat
        params = DetectorParams.from_powers(n, ch.p0, ch.p1)
        for i, (wave, shift) in enumerate(((w, 0), (w_sto, 0), (w_sto, tau_hat))):
            errors[trial, i] = (detect_frame(wave, params, shift)[0] != payload).sum()
    return eps, errors


def test_ber_block_stream_keeps_the_frame_law():
    # a BER block draws its frames through their window energies (the block
    # sampler); the sample-level path synthesizes each frame from its own
    # substream. Both must give one law: chi-square homogeneity of the error
    # histograms and a two-sample z-test of each BER column (the per-trial
    # loop's per-frame variance), 10,000 trials each, on both channels
    static = dict(channel=ChannelModel("static", rho=0.5), snr_reference="mean_received")
    for channel in ({}, static):
        config = ExperimentConfig(
            kind="ber_compare", snr_grid_db=(10.0,), trials=10_000, pilot_pairs=(8,),
            pilot_bit_samples=16, symbol_samples=(12,), data_symbols=5,
            tau_choices=(-5, -4, 4, 5), seed=1, threads=1, **channel,
        )
        (counts,) = counts_of(config)
        span = config.pilot_bit_samples
        blocks = {e - span: int(c) for e, c in enumerate(counts[: 2 * span + 1]) if c}
        eps, errors = per_trial_ber_frames(config, seed=2)
        p_value = homogeneity_p(blocks, Counter(eps.tolist()))
        assert p_value > STREAM_LAW_P_MIN, (channel, p_value)
        trials = config.trials
        se = np.sqrt(2 * errors.var(axis=0, ddof=1) / trials)
        z = (counts[-3:] / trials - errors.mean(axis=0)) / se
        assert np.all(np.abs(z) <= STREAM_LAW_Z_MAX), (channel, z)


def test_ber_sampler_keeps_the_joint_frame_law(monkeypatch):
    # the pilot's last row, the ideal, offset and compensated windows of
    # payload bit 0 and the last pilot "1" bit share samples: the row reads
    # bit 0's head for tau > 0, and a compensated window with tau - tau_hat < 0
    # reads the pilot bit's tail, which the row may read too. With one pilot
    # pair and one payload bit, the joint table of (tau - tau_hat, ideal,
    # no-comp, comp errors) per trial must match the sample-level path's:
    # chi-square homogeneity over 50,000 trials each
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=(10.0,), trials=50_000, pilot_pairs=(1,),
        pilot_bit_samples=16, symbol_samples=(12,), data_symbols=1,
        tau_choices=(-5, -4, 4, 5), seed=1, threads=1,
        channel=ChannelModel("static", rho=0.5), snr_reference="mean_received",
    )
    sampled = Counter()
    payload_frames = harness._payload_frames

    def recording(rng, frame, tau, p0, p1):
        tau_hat, bit_errors = payload_frames(rng, frame, tau, p0, p1)
        sampled.update(zip((tau - tau_hat).tolist(), *bit_errors.T.tolist()))
        return tau_hat, bit_errors

    monkeypatch.setattr(harness, "_payload_frames", recording)
    counts_of(config)
    eps, errors = per_trial_ber_frames(config, seed=2)
    frames = Counter(zip(eps.tolist(), *errors.T.tolist()))
    assert sum(sampled.values()) == sum(frames.values()) == config.trials
    p_value = homogeneity_p(sampled, frames)
    assert p_value > STREAM_LAW_P_MIN, p_value


@st.composite
def ber_geometries(draw):
    """A BER cell's geometry and offsets as the config admits them: |tau| up
    to ceil(N_p/2) - 1, negative offsets always drawn, and N often so small
    that a compensated clock -N_p < tau - tau_hat < -N crosses bit 0 twice."""
    span = draw(st.integers(4, 20))
    most = (span + 1) // 2 - 1
    taus = draw(st.lists(st.integers(-most, most), min_size=1, max_size=4))
    taus.append(-most)
    # the guard bit absorbs the latest compensated clock (ExperimentConfig's bound)
    width = draw(st.integers(max(1, max(taus) + most), max(taus) + most + 8))
    return dict(span=span, taus=taus, width=width, pairs=draw(st.integers(1, 4)),
                k=draw(st.integers(1, 5)), n=draw(st.integers(1, 12)),
                static=draw(st.booleans()), seed=draw(st.integers(0, 2**32)))


@settings(max_examples=150, deadline=None)
@given(ber_geometries())
def test_ber_sampler_matches_its_reference_exactly(geometry):
    # the harness's BER sampler writes its draws into the cumulative energy
    # array and gathers windows by flat index; the reference draws the same
    # variates and reads them by concatenation and take_along_axis. From
    # equal generators both must give the same estimates and bit errors and
    # leave the generators in the same state
    g = SimpleNamespace(**geometry)
    frame = FrameConfig(1, g.pairs, g.span, g.k, g.width)
    channel = ChannelModel("static", rho=0.5) if g.static else ChannelModel()
    rng = np.random.default_rng(g.seed)
    tau = rng.choice(g.taus, size=g.n)
    p0, p1 = harness._channel_powers(rng, channel, np.full(g.n, 0.1))
    ours, theirs = (np.random.default_rng([g.seed, 1]) for _ in range(2))
    tau_hat, errors = harness._payload_frames(ours, frame, tau, p0, p1)
    expected_tau_hat, expected_errors = oracles.payload_frames(theirs, frame, tau, p0, p1)
    np.testing.assert_array_equal(tau_hat, expected_tau_hat)
    np.testing.assert_array_equal(errors, expected_errors)
    assert ours.bit_generator.state == theirs.bit_generator.state


# grids whose batches cross cell edges: every full batch of the MAE grid
# spans 7 cells of 40 trials, and a batch edge splits a 100-trial BER cell
CROSSED_MAE = dict(snr_grid_db=(0.0, 5.0, 10.0), trials=40, pilot_pairs=(2, 4, 8))
CROSSED_BER = dict(
    kind="ber_compare", snr_grid_db=(5.0, 15.0), trials=100, pilot_pairs=(8,),
    pilot_bit_samples=16, symbol_samples=(12, 20), data_symbols=5,
    tau_choices=(-5, -4, 4, 5), threads=1,
)


def test_batches_across_cells_keep_each_cells_law():
    # a batch holds BLOCK consecutive frames of the run, so it crosses cell
    # edges, and each frame must still see its own cell's L, N and noise.
    # MAE: the 3 x 3 (SNR, L) grid run on 250 seeds; each cell's error
    # histogram against the cell run alone for as many trials (chi-square
    # homogeneity). BER: the 2 x 2 (SNR, N) grid run on 200 seeds against
    # each cell run alone on 200 others; a two-sample z-test of each cell's
    # mean error count per column
    runs = 250
    config = mae_config(**CROSSED_MAE)
    span = config.pilot_bit_samples
    batched = sum(counts_of(replace(config, seed=seed)) for seed in range(runs))
    for i, (snr, pairs, _, _) in enumerate(harness._cells(config)):
        alone = counts_of(replace(
            config, snr_grid_db=(snr,), pilot_pairs=(pairs,), trials=runs * config.trials,
            seed=runs + i,
        ))
        p_value = homogeneity_p(
            *({e - span: int(c) for e, c in enumerate(hist[: 2 * span + 1]) if c}
              for hist in (batched[i], alone[0]))
        )
        assert p_value > STREAM_LAW_P_MIN, (snr, pairs, p_value)

    config = ExperimentConfig(**CROSSED_BER)
    runs = 200
    batched = np.stack([counts_of(replace(config, seed=seed))[:, -3:] for seed in range(runs)])
    for i, (snr, n, _, _) in enumerate(harness._cells(config)):
        cell = replace(config, snr_grid_db=(snr,), symbol_samples=(n,))
        alone = np.stack(
            [counts_of(replace(cell, seed=seed))[0, -3:] for seed in range(runs, 2 * runs)]
        )
        se = np.sqrt((batched[:, i].var(axis=0, ddof=1) + alone.var(axis=0, ddof=1)) / runs)
        z = (batched[:, i].mean(axis=0) - alone.mean(axis=0)) / se
        assert np.all(np.abs(z) <= STREAM_LAW_Z_MAX), (snr, n, z)


def test_each_frame_of_a_batch_gets_its_cells_parameters(monkeypatch):
    # the exact counterpart of the law test above, which cannot see an edge
    # misplaced by a frame or two: frame f of a run belongs to cell
    # f // trials, and the sampler draws it with that cell's noise power and
    # L (MAE) or N (BER)
    seen = {}

    def record(name, fn, value):
        def wrapper(*args):
            seen.setdefault(name, []).extend(value(*args))
            return fn(*args)
        monkeypatch.setattr(harness, fn.__name__, wrapper)

    record("noise", harness._channel_powers, lambda rng, channel, noise: noise)
    record("L", harness._pilot_sums, lambda rng, rows, edges, *_: np.repeat(rows, np.diff(edges)))
    record("N", harness._payload_frames,
           lambda rng, frame, tau, *_: [frame.data_symbol_samples] * len(tau))
    for config in (mae_config(**CROSSED_MAE), ExperimentConfig(**CROSSED_BER)):
        seen.clear()
        cells = harness._cells(config)
        run_experiment(config)
        frame_cells = [cells[f // config.trials] for f in range(len(cells) * config.trials)]
        assert seen["noise"] == [noise for _, _, _, noise in frame_cells]
        if config.kind == "ber_compare":
            assert seen["N"] == [n for _, n, _, _ in frame_cells]
        else:
            assert seen["L"] == [pairs for _, pairs, _, _ in frame_cells]


# -------------------------------------------------------------------- results


def test_hist_is_normalized_pmf():
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(12.0,), trials=2000, pilot_pairs=(10,),
        pilot_bit_samples=20, tau_choices=(-6, 6), seed=20, threads=2,
    )
    hist = run_experiment(config)
    assert abs(sum(hist.probabilities.values()) - 1.0) < 1e-12
    assert all(p > 0 for p in hist.probabilities.values())


def test_hist_noise_free_floor():
    # removing the noise floor does not make estimation exact: fading draws
    # with nearly equal on/off powers stay ambiguous, so the zero-error atom
    # converges to the fading-limited plateau instead of 1
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(120.0,), trials=400, pilot_pairs=(30,),
        pilot_bit_samples=30, tau_choices=(-10, -7, 7, 10), seed=21, threads=2,
    )
    hist = run_experiment(config)
    pmf = hist.probabilities
    assert pmf[0] == max(pmf.values())
    assert pmf[0] > 0.6
    assert all(abs(e) <= 30 for e in pmf)


def test_hist_mass_sits_at_tau_minus_tau_hat(monkeypatch):
    # a scan that always answers 3: every error is tau - 3
    monkeypatch.setattr(harness, "scan_sto", lambda sums: np.full(len(sums), 3))
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(10.0,), trials=200, pilot_pairs=(8,),
        pilot_bit_samples=16, tau_choices=(-5, 5), seed=3, threads=1,
    )
    pmf = run_experiment(config).probabilities
    assert set(pmf) == {-8, 2}
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_mae_rows_cover_grid():
    res = run_experiment(mae_config())
    assert [(r[0], r[1]) for r in res.rows] == [
        (5.0, 8), (5.0, 16), (10.0, 8), (10.0, 16),
    ]
    assert all(r[2] >= 0 and r[3] == 400 for r in res.rows)


def test_ber_rows_and_bounds():
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=(15.0,), trials=400, pilot_pairs=(16,),
        pilot_bit_samples=24, symbol_samples=(20, 40), data_symbols=10,
        tau_choices=(-8, 8), seed=7, threads=2,
    )
    res = run_experiment(config)
    assert [(r[0], r[1]) for r in res.rows] == [(15.0, 20), (15.0, 40)]
    for row in res.rows:
        _, _, no_comp, comp, ideal, bits = row
        assert bits == 400 * 10
        for ber in (no_comp, comp, ideal):
            assert 0.0 <= ber <= 1.0


def test_ber_ordering_high_snr():
    # paired comparison at 15 dB: compensation sits between broken and ideal
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=(15.0,), trials=1500, pilot_pairs=(30,),
        pilot_bit_samples=30, symbol_samples=(50,), data_symbols=20,
        tau_choices=(-10, -8, -6, 6, 8, 10), seed=17, threads=2,
    )
    (_, _, no_comp, comp, ideal, bits), = run_experiment(config).rows
    se = math.sqrt(0.25 / bits)
    assert ideal <= comp + 2 * se
    assert comp <= no_comp + 2 * se
    assert no_comp - comp > 2 * se  # compensation recovers a real margin


def test_ber_longer_symbols_average_better():
    # more samples per symbol sharpen the energy statistic: ideal BER at
    # N=100 is no worse than at N=50 (2-SE slack)
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=(10.0,), trials=1500, pilot_pairs=(30,),
        pilot_bit_samples=30, symbol_samples=(50, 100), data_symbols=20,
        tau_choices=(-10, 10), seed=23, threads=2,
    )
    rows = run_experiment(config).rows
    ideal = {n: r_ideal for _, n, _, _, r_ideal, _ in rows}
    bits = rows[0][5]
    se = math.sqrt(
        (ideal[50] * (1 - ideal[50]) + ideal[100] * (1 - ideal[100])) / bits
    )
    assert ideal[100] <= ideal[50] + 2 * se


def test_ber_pure_noise_limit():
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=(-30.0,), trials=700, pilot_pairs=(10,),
        pilot_bit_samples=16, symbol_samples=(20,), data_symbols=20,
        tau_choices=(-5, 5), seed=29, threads=2,
    )
    (_, _, no_comp, comp, ideal, _), = run_experiment(config).rows
    for ber in (no_comp, comp, ideal):
        assert ber == pytest.approx(0.5, abs=0.02)


# ------------------------------------------------------------------- CSV output


def test_mae_csv_format(tmp_path):
    write_csv(run_experiment(mae_config(trials=50)).to_csv(), str(tmp_path / "mae.csv"))
    raw = (tmp_path / "mae.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "snr_db,L,mae,trials"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "5.0" and first[1] == "8" and first[3] == "50"
    float(first[2])


def test_hist_csv_format(tmp_path):
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(10.0,), trials=300, pilot_pairs=(8,),
        pilot_bit_samples=16, tau_choices=(-5, 5), seed=3, threads=1,
    )
    result = run_experiment(config)
    write_csv(result.to_csv(), str(tmp_path / "hist.csv"))
    lines = (tmp_path / "hist.csv").read_text().splitlines()
    assert lines[0] == "epsilon,probability"
    eps_column = [int(line.split(",")[0]) for line in lines[1:]]
    assert eps_column == sorted(eps_column)
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert len(lines) == 1 + len(result.probabilities)


def test_ber_csv_format(tmp_path):
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=(5.0,), trials=40, pilot_pairs=(8,),
        pilot_bit_samples=16, symbol_samples=(12,), data_symbols=5,
        tau_choices=(-5, 5), seed=3, threads=1,
    )
    write_csv(run_experiment(config).to_csv(), str(tmp_path / "ber.csv"))
    lines = (tmp_path / "ber.csv").read_text().splitlines()
    assert lines[0] == "snr_db,N,ber_no_comp,ber_comp,ber_ideal,bits"
    assert len(lines) == 2
    assert lines[1].split(",")[5] == "200"


def test_write_csv_lf_only(tmp_path):
    path = tmp_path / "x.csv"
    write_csv("a,b\n1,2\n", str(path))
    assert path.read_bytes() == b"a,b\n1,2\n"


def test_write_csv_failure_keeps_earlier_file(tmp_path):
    path = tmp_path / "x.csv"
    write_csv("a,b\n1,2\n", str(path))
    # a lone surrogate cannot be encoded as UTF-8, so the write raises midway
    with pytest.raises(UnicodeEncodeError):
        write_csv("a,b\n3,\ud800\n", str(path))
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


# -------------------------------------------------------------------------- CLI


@pytest.fixture
def run_spy(monkeypatch):
    """Replaces the CLI's runner; the list records every config it was given."""
    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    return calls


def test_cli_bad_flag_exits_2(capsys):
    assert cli_main(["mae", "--bogus"]) == 2
    assert cli_main([]) == 2
    # malformed grids, an empty range and flags that no longer exist
    for argv in (
        ["mae", "--snr", "0:10"], ["mae", "--snr", "10:0:5"], ["mae", "--snr", "0:inf:5"],
        ["hist", "--tau", "6..4"], ["mae", "--snr-range", "0:10:5"],
        ["hist", "--tau-set", "-6..-4"], ["mae", "--k", "5"], ["hist", "--k", "5"],
    ):
        assert cli_main(argv) == 2, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--tau", "20"], "tau"), (["--np", "3"], "pilot_bit_samples"),
        (["--trials", "0"], "trials"), (["--snr", "nan"], "finite"),
        (["--threads", "-3"], "threads"), (["--threads", "0"], "threads"),
        (["--snr", "-4000"], "-4000"), (["--seed", "-1"], "seed"),
        (["--n", "50,100"], "symbol_samples"), (["--tau", "-10..-5,-6"], "offset -6"),
    ],
)
def test_cli_bad_value_exits_2_before_any_trial(tmp_path, capsys, run_spy, flags, word):
    out = tmp_path / "x.csv"
    assert cli_main(["mae", "--snr", "5", *flags, "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert run_spy == [] and not out.exists()


def test_cli_list_flags_refuse_oversized_lists_before_expanding():
    assert len(cli._int_list("1..10000")) == len(cli._float_list("1:10000:1")) == cli.MAX_VALUES
    for parse, text in ((cli._int_list, "1..10000,0"), (cli._float_list, "0:10000:1")):
        with pytest.raises(argparse.ArgumentTypeError, match="more than 10000"):
            parse(text)
    # 10^18 grid points and 4*10^9 offsets must be counted, never built: the
    # CLI runs in a child whose address space is capped at 1 GiB, so a parser
    # that did expand them fails there with a MemoryError
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    main = "import sys; from ambcsync.cli import cli_main; sys.exit(cli_main(sys.argv[1:]))"
    for argv in (["mae", "--snr", "0:1e9:1e-9"], ["hist", "--tau", "-2000000000..2000000000"]):
        proc = subprocess.run(
            [sys.executable, "-c", main, *argv], capture_output=True, text=True, preexec_fn=cap
        )
        assert proc.returncode == 2, proc.stderr
        assert "more than 10000 values" in proc.stderr


@pytest.mark.parametrize(
    "text, points",
    [
        ("0:20:2.5", (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)),
        ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
        ("0:20:7", (0.0, 7.0, 14.0)),
        ("0:1:0.6", (0.0, 0.6)),
        ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.3)),
    ],
)
def test_cli_grid_points_are_the_decimal_values(text, points):
    # 0:1:0.1 built as start + i*step in binary floats gives 0.30000000000000004;
    # a grid stops at or before stop, and 0.3 / 0.1 counts 3 steps, not 2.9999...
    assert cli._float_list(text) == points


@pytest.mark.parametrize("name", ["missing/x.csv", ".", ""])
def test_cli_bad_out_path_exits_2_before_any_trial(tmp_path, capsys, run_spy, name):
    # a file in a directory that does not exist, a directory itself, no name
    out = str(tmp_path / name) if name else ""
    assert cli_main(["mae", "--snr", "5", "--trials", "10", "--out", out]) == 2
    assert repr(out) in capsys.readouterr().err
    assert run_spy == []


def test_cli_runtime_failure_exits_1(tmp_path, monkeypatch, capsys):
    def refuse(text, path):
        raise OSError(f"disk full while writing {path}")

    monkeypatch.setattr(cli, "write_csv", refuse)
    code = cli_main(
        ["mae", "--snr", "5", "--pairs", "8", "--np", "16", "--tau", "-5,5",
         "--trials", "10", "--threads", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "disk full" in capsys.readouterr().err


def test_cli_mae_writes_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli_main(
        ["mae", "--snr", "0:10:5", "--pairs", "8", "--np", "16",
         "--tau", "-5,5", "--trials", "60", "--seed", "9", "--threads", "1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,L,mae,trials"
    assert len(lines) == 4  # SNR 0, 5, 10 with a single L
    assert "m.csv" in capsys.readouterr().out


def test_cli_hist_tau_set(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code = cli_main(
        ["hist", "--snr", "12", "--pairs", "10", "--np", "20",
         "--tau", "-6..-4,4..6", "--trials", "80", "--seed", "3",
         "--threads", "1", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("epsilon,probability")
    capsys.readouterr()


def test_cli_ber(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = cli_main(
        ["ber", "--snr", "10", "--pairs", "8", "--np", "16", "--n", "12,20",
         "--k", "5", "--tau", "-4,4", "--trials", "30", "--seed", "4",
         "--threads", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,N,ber_no_comp,ber_comp,ber_ideal,bits"
    assert len(lines) == 3
    capsys.readouterr()


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ambcsync.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert all(cmd in proc.stdout for cmd in ("mae", "hist", "ber"))
    assert "selftest" not in proc.stdout
