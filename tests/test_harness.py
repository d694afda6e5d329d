"""Experiment runners, CSV output, determinism, and the CLI."""

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
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
from ambcsync.estimator import _offset, scan_sto


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
    # a repeated offset would weigh double, a repeated SNR, L or N would run
    # its cells twice: every axis refuses a repeat, named with its value
    for field, value, named in (
        ("tau_choices", (-5, 5, 5), "5"), ("snr_grid_db", (5, 10.0, np.float32(5.0)), "5.0"),
        ("pilot_pairs", (8, 16, 8), "8"), ("symbol_samples", (50, 50), "50"),
    ):
        with pytest.raises(ValueError, match=f"{field} repeats the value {named}$"):
            mae_config(**{field: value})
    with pytest.raises(ValueError, match="symbol_samples repeats the value 12"):
        ExperimentConfig(
            kind="ber_compare", snr_grid_db=(5.0,), trials=10, pilot_pairs=(8,),
            pilot_bit_samples=16, symbol_samples=(12, 20, 12), tau_choices=(-5,),
        )
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
    # a BER frame's guard bit absorbs the latest compensated clock, max(tau)
    # less the scan's earliest estimate: -5 - (-7) = 2 samples at N_p = 16,
    # and no less
    ber = dict(
        kind="ber_compare", snr_grid_db=(0.0,), trials=10, pilot_pairs=(2,),
        pilot_bit_samples=16, data_symbols=5, tau_choices=(-5,),
    )
    ExperimentConfig(**ber, symbol_samples=(2,))
    with pytest.raises(ValueError, match="clock offset 2"):
        ExperimentConfig(**ber, symbol_samples=(1,))
    # at N_p = 4 both candidates n0 = 2, 3 read as delays (tau_hat 2 or 1), so
    # no clock passes max(tau) = 1, which a guard bit of one sample absorbs
    ExperimentConfig(**dict(ber, pilot_bit_samples=4, tau_choices=(1,)), symbol_samples=(1,))


def test_each_offset_checked_once_per_config(monkeypatch):
    # the offset check reads only N_p, which every cell shares, so a config
    # makes it once per offset whatever its grid; a bad offset keeps its error
    checked = []
    check_tau = FrameConfig.check_tau
    monkeypatch.setattr(
        FrameConfig, "check_tau", lambda frame, tau: checked.append(tau) or check_tau(frame, tau)
    )
    taus = (-7, -3, 2, 5)
    for config in (
        dict(snr_grid_db=(0.0, 5.0, 10.0), pilot_pairs=(4, 8, 16), tau_choices=taus),
        dict(kind="ber_compare", snr_grid_db=(5.0, 10.0), pilot_pairs=(8,),
             symbol_samples=(12, 20), data_symbols=5, tau_choices=taus),
    ):
        checked.clear()
        mae_config(**config)
        assert checked == list(taus), config
    with pytest.raises(ValueError) as refused:
        mae_config(snr_grid_db=(0.0, 5.0), tau_choices=(-5, 8))
    assert str(refused.value) == "|tau|=8 not detectable: need pilot_bit_samples > 2|tau|, have 16"


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
    pay for a worker, and would otherwise run in one process.  At a
    break-even of 1 µs every batch is worth a process of its own."""
    monkeypatch.setattr(harness, "FORK_BREAK_EVEN_US", 1)


@pytest.fixture
def inline_workers(monkeypatch, forked):
    """Run every share inline, on a machine of 8 cores, 4 of which this
    process may run on, whatever the run's size; returns the (processes,
    tasks) of each run of more than one share."""
    runs = []

    def run_inline(config, shares):
        if len(shares) > 1:
            runs.append((len(shares), shares[-1].stop))
        return sum(harness._run_share(config, share) for share in shares)

    monkeypatch.setattr(harness, "_run_shares", run_inline)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 5}, raising=False)
    return runs


def test_threads_cap_the_processes_and_default_to_usable_cpus(inline_workers):
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
    # of the share runner records the shares of every process count it can
    # get, on a machine of 64 cores
    seen = []

    def record(config, shares):
        seen.append(shares)
        return harness._run_share(config, range(0))  # all-zero counts

    monkeypatch.setattr(harness, "_run_shares", record)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=sum(sizes))
    assert sizes == [min(harness.BLOCK, sum(sizes[i:])) for i in range(len(sizes))]
    for count in range(2, len(sizes) + 1):
        for _ in range(2):
            harness._execute(replace(config, threads=count))
        shares, again = seen[-2:]
        assert shares == again and len(shares) == count and all(shares)
        # every batch exactly once, in order: the shares are contiguous
        assert [i for share in shares for i in share] == list(range(len(sizes)))
        trials = [sum(sizes[i] for i in share) for share in shares]
        assert max(trials) - min(trials) <= max(sizes)
    # one process runs one share of every batch
    harness._execute(replace(config, threads=1))
    assert seen[-1] == [range(len(sizes))] and len(seen) == 2 * (len(sizes) - 1) + 1


# The benchmark's workloads and criterion 1's run, written out
MAE_QUICK_GRID = dict(kind="mae_vs_snr", snr_grid_db=tuple(2.5 * i for i in range(9)), trials=40,
                      pilot_pairs=(20, 30, 40), pilot_bit_samples=30, tau_choices=(-10, 10))
MAE_SWEEP = dict(kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=1000, pilot_pairs=(20, 30, 40),
                 pilot_bit_samples=30, tau_choices=(-10, 10))
BER_PAIRED = dict(kind="ber_compare", snr_grid_db=(5.0, 10.0, 15.0, 20.0), trials=300,
                  pilot_pairs=(30,), pilot_bit_samples=30, symbol_samples=(50, 100),
                  data_symbols=50, tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11)))
CRITERION_1 = dict(kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=100_000,
                   pilot_pairs=(20, 30, 40), pilot_bit_samples=30, tau_choices=(-10, 10),
                   seed=101, channel=ChannelModel("static", rho=0.5), snr_reference="mean_received")
ONE_CELL = dict(kind="mae_vs_snr", snr_grid_db=(5.0,), pilot_pairs=(8,), pilot_bit_samples=16,
                tau_choices=(-5, 5))

# (config fields, usable cores, break-even µs or None for the fitted one,
# processes): one process per break-even of estimated inline work, at least
# one, capped by threads, cores and batches.  At 2 cores only criterion 1's
# run is worth two; the BER grid's 33 ms is worth one at any core count
FORK_DECISIONS = [
    pytest.param(MAE_QUICK_GRID, 2, None, 1, id="mae_quick_grid"),
    pytest.param(MAE_SWEEP, 2, None, 1, id="mae_sweep"),
    pytest.param(BER_PAIRED, 2, None, 1, id="ber_paired"),
    pytest.param(CRITERION_1, 2, None, 2, id="criterion_1"),
    pytest.param(BER_PAIRED, 16, None, 1, id="ber_paired-16-cores"),
    # 2,344 batches of 540 µs: 1.27 s, 52 break-evens
    pytest.param(CRITERION_1, 64, None, 52, id="criterion_1-64-cores"),
    # 100 batches of 3,320 µs: 332 ms, 13 break-evens
    pytest.param(dict(BER_PAIRED, trials=3200), 16, None, 13, id="ber-100-batches-16-cores"),
    # one batch is one task, which forks no worker whatever the requested count
    pytest.param(dict(ONE_CELL, trials=harness.BLOCK, threads=64), 64, 1, 1, id="one-batch"),
    # 64 requested workers, 3 batches: 3 tasks need only 3 processes
    pytest.param(dict(ONE_CELL, trials=3 * harness.BLOCK, threads=64), 4, 1, 3, id="batches-cap"),
    # 10 batches: one process per core, requested or not
    pytest.param(dict(ONE_CELL, trials=10 * harness.BLOCK, threads=64), 4, 1, 4, id="cores-cap"),
    pytest.param(dict(ONE_CELL, trials=10 * harness.BLOCK), 4, 1, 4, id="default-threads"),
]


@pytest.mark.parametrize("fields, cores, break_even, processes", FORK_DECISIONS)
def test_fork_decision_is_a_function_of_the_config(monkeypatch, fields, cores, break_even, processes):
    if break_even is not None:
        monkeypatch.setattr(harness, "FORK_BREAK_EVEN_US", break_even)
    config = ExperimentConfig(**fields)
    batches = -(-len(config._cell_table) * config.trials // harness.BLOCK)
    assert [harness._processes(config, batches, cores) for _ in range(5)] == [processes] * 5
    # one thread, or one core, is one process
    assert harness._processes(replace(config, threads=1), batches, cores) == 1
    assert harness._processes(config, batches, 1) == 1


def test_one_share_forks_nothing_and_opens_no_pipe(monkeypatch):
    # every run goes through the share runner, which works the last share in
    # this process: a run worth one process, a run of one thread and a run
    # on a platform without os.fork have one share and call neither
    calls, shares = [], []
    run_shares = harness._run_shares

    def spy(name):
        def call(*args):
            calls.append(name)
            raise RuntimeError(f"os.{name} called")
        return call

    monkeypatch.setattr(harness, "_run_shares", lambda c, s: shares.append(len(s)) or run_shares(c, s))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(harness.os, "fork", spy("fork"))
    monkeypatch.setattr(harness.os, "pipe", spy("pipe"))
    config = mae_config(threads=None)  # 7 batches, 3.8 ms estimated
    expected = run_experiment(config)
    monkeypatch.setattr(harness, "FORK_BREAK_EVEN_US", 1)
    assert run_experiment(replace(config, threads=1)) == expected
    with pytest.raises(RuntimeError, match="os.pipe called"):  # the spies see a run of two
        run_experiment(replace(config, threads=2))
    monkeypatch.delattr(harness.os, "fork")
    assert run_experiment(config) == expected
    assert shares == [1, 1, 2, 1] and calls == ["pipe"]


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
harness.FORK_BREAK_EVEN_US = 1
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


def test_statistics_read_the_channel_only_through_its_contrast(monkeypatch):
    # scaling a frame's p0 and p1 by c scales every column sum, window energy
    # and threshold by c and shifts the scan's profile by a constant, so the
    # estimates and bit errors depend on the powers only through
    # kappa = p1/p0: every kind on both channels gives the same counts under
    # scaled powers, from the same seed
    kinds = (
        mae_config(),
        mae_config(kind="error_hist", snr_grid_db=(10.0,), pilot_pairs=(8,), trials=1000),
        ExperimentConfig(**CROSSED_BER),
    )
    configs = [replace(config, **channel) for config in kinds for channel in ({}, STATIC)]
    expected = [harness._execute(config) for config in configs]
    channel_powers = harness._channel_powers
    for scale in (3.0, 2.0**-10, 1e6):
        monkeypatch.setattr(
            harness, "_channel_powers", lambda *args: tuple(scale * p for p in channel_powers(*args))
        )
        for config, counts in zip(configs, expected):
            np.testing.assert_array_equal(harness._execute(config), counts, err_msg=f"{scale}")
    monkeypatch.undo()
    # on the static channel kappa = 1 + rho / (1 + sigma^2), so rho and the
    # SNR reach the output only through it: three (rho, SNR) pairs of
    # kappa = 1.4545 give one pmf
    hists = {
        run_experiment(mae_config(
            kind="error_hist", snr_grid_db=(snr,), pilot_pairs=(8,), trials=2000, seed=7,
            channel=ChannelModel("static", rho=rho),
        )).to_csv()
        for rho, snr in ((0.5, 10.0), (1.0, -0.792), (3.0, -7.482))
    }
    assert len(hists) == 1


@pytest.mark.usefixtures("forked")
@pytest.mark.parametrize(
    "trials, channel, pairs",
    [
        pytest.param(trials, channel, 8, id=f"{name}{trials}")
        for name, channel in (("", {}), ("static-", STATIC))
        for trials in (harness.BLOCK - 1, harness.BLOCK, harness.BLOCK + 1, 3 * harness.BLOCK + 7)
    ] + [pytest.param(harness.BLOCK + 1, STATIC, 1, id="static-257-L1")],
)
def test_pilot_blocks_worker_independent(trials, channel, pairs):
    # every kind runs one task per batch of BLOCK frames, a partial batch
    # last; any number of processes gives the same output, on either
    # channel, and every trial counts once. At L = 1 the BER sampler's
    # column sums are Gamma(0) draws, zero, and its pilot is the last pair
    configs = (
        mae_config(trials=trials, snr_grid_db=(10.0,), **channel),
        mae_config(
            kind="error_hist", trials=trials, snr_grid_db=(10.0,), pilot_pairs=(pairs,), **channel
        ),
        mae_config(
            kind="ber_compare", trials=trials, snr_grid_db=(10.0,), pilot_pairs=(pairs,),
            symbol_samples=(12, 20), data_symbols=5, **channel,
        ),
    )
    for config in configs:
        outputs = {run_experiment(replace(config, threads=w)).to_csv() for w in (1, 2, 3, 5)}
        assert len(outputs) == 1, config.kind
        counts = harness._execute(replace(config, threads=5))
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


# the benchmark's mae_quick_grid and ber_paired workloads (perfbench/workloads.py)
# at seed 1, and half the traced peak of a repeated inline run of each with
# the batch arrays allocated per batch (564,937 and 1,296,382 bytes), the
# bounds fixed before the first run
QUICK_GRID = dict(
    kind="mae_vs_snr", snr_grid_db=tuple(2.5 * i for i in range(9)), trials=40,
    pilot_pairs=(20, 30, 40), pilot_bit_samples=30, tau_choices=(-10, 10),
)
BER_PAIRED = dict(
    kind="ber_compare", snr_grid_db=(5.0, 10.0, 15.0, 20.0), trials=300, pilot_pairs=(30,),
    pilot_bit_samples=30, symbol_samples=(50, 100), data_symbols=50,
    tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11)),
)


@pytest.mark.parametrize(
    "fields, bound", [(QUICK_GRID, 282_000), (BER_PAIRED, 648_000)], ids=["mae", "ber"]
)
def test_repeated_runs_reuse_the_threads_batch_arrays(fields, bound):
    # a thread keeps its batches' work buffers (the pilot sums, the scan's
    # profile, a BER cell's energies and draws), so a run after a first one
    # allocates none of them: its traced peak stays under half the peak of
    # the same run with those arrays allocated per batch
    config = ExperimentConfig(**fields, seed=1, threads=1)
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


SCRATCH_CONFIGS = (
    dict(kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=300, pilot_pairs=(20, 30),
         pilot_bit_samples=30, tau_choices=(-10, 10), seed=1, threads=1),
    dict(kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=300, pilot_pairs=(20, 30),
         pilot_bit_samples=20, tau_choices=(-6, 6), seed=2, threads=1),
    dict(kind="mae_vs_snr", snr_grid_db=(10.0,), trials=500, pilot_pairs=(30,),
         pilot_bit_samples=30, tau_choices=(-10, -3, 4, 10), seed=3, threads=1),
    dict(BER_PAIRED, snr_grid_db=(10.0,), trials=200, symbol_samples=(50,), seed=4, threads=1),
    dict(BER_PAIRED, snr_grid_db=(10.0,), trials=200, symbol_samples=(100,), seed=5, threads=1),
    dict(BER_PAIRED, snr_grid_db=(15.0,), trials=200, symbol_samples=(50,), seed=6, threads=1),
)


def test_buffers_reused_across_geometries_keep_each_csv():
    # one thread's buffers serve runs of other sizes: in a new thread, whose
    # buffers start empty, a run at N_p = 20 between two at N_p = 30 reads
    # larger buffers, and a BER run at N = 100 between two at N = 50 grows
    # them; each CSV is the one a fresh interpreter writes for its config alone
    code = (
        "import json, sys\n"
        "from ambcsync import ExperimentConfig, run_experiment\n"
        "print(run_experiment(ExperimentConfig(**json.loads(sys.argv[1]))).to_csv(), end='')\n"
    )
    fresh = [
        subprocess.run([sys.executable, "-c", code, json.dumps(fields)], capture_output=True,
                       text=True, check=True, timeout=120).stdout
        for fields in SCRATCH_CONFIGS
    ]
    reused = []
    thread = threading.Thread(target=lambda: reused.extend(
        run_experiment(ExperimentConfig(**fields)).to_csv() for fields in SCRATCH_CONFIGS
    ))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert reused == fresh


def test_threads_running_batches_at_once_keep_their_own_buffers():
    # each thread runs its batches in buffers of its own: three threads (more
    # than the two cores the suite is timed on) running different geometries
    # at once, switching every microsecond, each get the CSV of a run alone
    configs = [ExperimentConfig(**fields) for fields in SCRATCH_CONFIGS[1:4]]
    alone = [run_experiment(config).to_csv() for config in configs]
    together = [None] * len(configs)

    def run(i):
        together[i] = run_experiment(configs[i]).to_csv()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone


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


def test_pilot_only_runs_read_neither_n_nor_k():
    # an MAE or histogram frame has no payload (K = 0) and a guard of one
    # pilot bit (N = N_p), which absorbs every offset the scan resolves: any
    # N (one sample, or a sweep) and any K give the CSV of their defaults
    hist = dict(kind="error_hist", snr_grid_db=(10.0,), pilot_pairs=(8,))
    for base in (mae_config(trials=100), mae_config(**hist)):
        expected = run_experiment(base).to_csv()
        for fields in (
            dict(symbol_samples=(1,)), dict(symbol_samples=(50, 100)),
            dict(data_symbols=0), dict(data_symbols=7),
        ):
            config = replace(base, **fields)
            frames = {(f.data_symbols, f.data_symbol_samples) for _, _, f, _ in config._cell_table}
            assert frames == {(0, 16)} and len(config._cell_table) == len(base._cell_table)
            assert run_experiment(config).to_csv() == expected, fields


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

    def recording(rng, rows, edges, tau, span, p0, p1, *rest):
        seen.append((p0.ravel().tolist(), p1.ravel().tolist()))
        return pilot_sums(rng, rows, edges, tau, span, p0, p1, *rest)

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


def sample_path_frames(config, seed):
    """The sample-level path on ``config``'s one cell: each trial draws from
    its own (seed, 0, trial) substream its offset, its channel (degenerate
    draws redrawn, as the engine does) and its K payload bits, synthesizes
    its frame, estimates its offset and, when K > 0, detects its payload.
    Returns each frame's estimation error and its bit errors under ideal
    sync, no and estimated compensation (zeros for K = 0)."""
    ((_, _, frame, noise),) = config._cell_table
    k = frame.data_symbols
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
        payload = rng.integers(0, 2, size=k)  # draws nothing when k == 0
        w = synthesize_received(build_bit_sequence(frame, payload), frame, ch, rng)
        w_sto = apply_sto(w, tau)
        tau_hat = estimate_sto(collect_windows(w_sto)).tau_hat
        eps[trial] = tau - tau_hat
        if k:
            params = DetectorParams.from_powers(frame.data_symbol_samples, ch.p0, ch.p1)
            for i, (wave, shift) in enumerate(((w, 0), (w_sto, 0), (w_sto, tau_hat))):
                errors[trial, i] = (detect_frame(wave, params, shift)[0] != payload).sum()
    return eps, errors


def homogeneity_p(*histograms):
    """Chi-square homogeneity p-value of error-count histograms; errors seen
    fewer than 10 times in all of them together share one bin."""
    errors = sorted(set().union(*histograms))
    table = np.array([[hist.get(e, 0) for e in errors] for hist in histograms])
    sparse = table.sum(axis=0) < 10
    if sparse.any():
        table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
    return stats.chi2_contingency(table)[1]


def test_pilot_batch_keeps_the_frame_law():
    # error_hist trials draw the pilot's column power sums as scaled Gamma(L)
    # variates; a synthesized frame draws every sample. Both must give one
    # error distribution: chi-square homogeneity of the batch histogram
    # against the frame path's, 20,000 independent trials each, on both
    # channels
    static = dict(channel=ChannelModel("static", rho=0.5), snr_reference="mean_received")
    for channel in ({}, static):
        config = ExperimentConfig(
            kind="error_hist", snr_grid_db=(10.0,), trials=20_000, pilot_pairs=(20,),
            pilot_bit_samples=30, tau_choices=(-10, 10), seed=1, threads=1, **channel,
        )
        pmf = run_experiment(config).probabilities
        batch = {e: round(p * config.trials) for e, p in pmf.items()}
        eps, _ = sample_path_frames(config, seed=2)
        p_value = homogeneity_p(batch, Counter(eps.tolist()))
        assert p_value > STREAM_LAW_P_MIN, (channel, p_value)


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
        (counts,) = harness._execute(config)
        span = config.pilot_bit_samples
        blocks = {e - span: int(c) for e, c in enumerate(counts[: 2 * span + 1]) if c}
        eps, errors = sample_path_frames(config, seed=2)
        p_value = homogeneity_p(blocks, Counter(eps.tolist()))
        assert p_value > STREAM_LAW_P_MIN, (channel, p_value)
        trials = config.trials
        se = np.sqrt(2 * errors.var(axis=0, ddof=1) / trials)
        z = (counts[-3:] / trials - errors.mean(axis=0)) / se
        assert np.all(np.abs(z) <= STREAM_LAW_Z_MAX), (channel, z)


@st.composite
def ber_geometries(draw):
    """A cell's geometry and offsets as the config admits them: |tau| up to
    ceil(N_p/2) - 1, negative offsets always drawn, K = 0 (a pilot-only
    frame) or a payload, and N often so small that a compensated clock
    -N_p < tau - tau_hat < -N crosses bit 0 twice."""
    span = draw(st.integers(4, 20))
    most = (span + 1) // 2 - 1
    taus = draw(st.lists(st.integers(-most, most), min_size=1, max_size=4))
    taus.append(-most)
    # the guard bit absorbs the latest compensated clock, max(tau) less the
    # scan's earliest estimate (ExperimentConfig's bound)
    latest = max(taus) - min(0, int(_offset(np.arange(2, span), span).min()))
    width = draw(st.integers(max(1, latest), latest + 8))
    return dict(span=span, taus=taus, width=width, pairs=draw(st.integers(1, 4)),
                k=draw(st.integers(0, 5)), n=draw(st.integers(1, 12)),
                static=draw(st.booleans()), seed=draw(st.integers(0, 2**32)))


class ReplayDraws:
    """A generator stand-in that serves the batch samplers' draws from
    sample-level frames: ``units[i]`` holds frame i's sample energies, each
    over the power of its own bit in the frame's bit sequence, and a draw
    sums the units that the sampler reads with it.  The sampler's own
    scaling then gives the frames' energies back, up to rounding, exactly
    when its geometry is right.  Any call the samplers do not make fails."""

    def __init__(self, frame, units, tau, payload):
        self.frame, self.units, self.tau, self.payload = frame, units, tau, payload
        self.calls = ["integers", "pilot", "near", "segments"] if frame.data_symbols else ["pilot"]

    def expect(self, call, ok):
        assert self.calls.pop(0) == call and ok, f"unexpected {call} draw"

    def integers(self, low, high, size):
        self.expect("integers", (low, high, size) == (0, 2, self.payload.shape))
        return self.payload.copy()

    def standard_exponential(self, size=None, out=None):
        # the last pilot pair and payload bit 0, sample by sample
        f = self.frame
        start, span, width = f.data_start, f.pilot_bit_samples, f.data_symbol_samples
        self.expect("near", size is None and out.shape == (len(self.tau), 2 * span + width))
        out[...] = self.units[:, start - 2 * span : start + width]
        return out

    def standard_gamma(self, shape, size=None, out=None):
        # told apart by their shape parameter; ``expect`` checks their order
        f, n = self.frame, len(self.tau)
        if np.ndim(shape) == 0:  # column sums of pilot rows 0..shape-1 under each frame's clock
            rows = f.pilot_pairs - (f.data_symbols > 0)
            self.expect("pilot", (shape, size, out.shape) == (rows, None, (n, f.pilot_bit_samples)))
            for i, (units, tau) in enumerate(zip(self.units, self.tau)):
                out[i] = collect_windows(apply_sto(Waveform(units, f), tau))[:rows].sum(axis=0)
            return out
        # bits 1..K-1 and the guard bit, each cut into three segments of the given lengths
        k, width, lengths = f.data_symbols, f.data_symbol_samples, np.asarray(shape)
        self.expect("segments", size is None and out.shape == (n, k, 3)
                    and lengths.shape == (n, 1, 3)
                    and (lengths >= 0).all() and (lengths.sum(axis=2) == width).all())
        later = self.units[:, f.data_start + width :].reshape(n, k, width)
        energy = np.pad(later.cumsum(axis=2), [(0, 0), (0, 0), (1, 0)])  # before each position
        out[...] = np.diff(np.take_along_axis(energy, lengths.cumsum(axis=2), axis=2), axis=2,
                           prepend=0)
        return out


# the relative gap within which the samplers and the sample path may round
# a near-tie apart (the top two profile values, or an energy and its
# threshold); fixed before the first run
NEAR_TIE_REL = 1e-9


@settings(max_examples=200, deadline=None)
@given(ber_geometries())
def test_samplers_read_the_sample_path_exactly(geometry):
    # synthesized frames replayed through the BER sampler (K >= 1), or the
    # pilot sums and the scan (K = 0): frame by frame, the estimate must be
    # the scan of the frame's samples under clock tau, and the bit errors the
    # detector's under ideal sync, no and estimated compensation
    g = SimpleNamespace(**geometry)
    frame = FrameConfig(g.pairs, g.span, g.k, g.width)
    channel = ChannelModel("static", rho=0.5) if g.static else ChannelModel()
    rng = np.random.default_rng(g.seed)
    tau = rng.choice(g.taus, size=g.n)
    p0, p1 = harness._channel_powers(rng, channel, np.full(g.n, 0.1))
    payload = rng.integers(0, 2, size=(g.n, g.k))
    waves, units = [], []
    for row, power in zip(payload, np.hstack([p0, p1])):
        bits = build_bit_sequence(frame, row)
        waves.append(synthesize_received(bits, frame, ChannelState(*power), rng))
        units.append(np.abs(waves[-1].samples) ** 2 / np.repeat(power[bits], frame.bit_durations()))
    draws = ReplayDraws(frame, np.array(units), tau, payload)
    if g.k:
        tau_hat, errors = harness._payload_frames(draws, frame, tau, p0, p1)
    else:
        tau_hat = scan_sto(harness._pilot_sums(draws, [g.pairs], [0, g.n], tau, g.span, p0, p1))
    assert draws.calls == []
    for i, w in enumerate(waves):
        w_tau = apply_sto(w, tau[i])
        estimate = estimate_sto(collect_windows(w_tau))
        if tau_hat[i] != estimate.tau_hat:
            top, second = np.sort(estimate.loglik)[:-3:-1]
            assert top - second <= NEAR_TIE_REL * abs(top), (i, tau_hat[i], estimate.tau_hat)
            event("near-tie excused")
        if not g.k:
            continue
        params = DetectorParams.from_powers(g.width, p0[i, 0], p1[i, 0])
        for column, (wave, shift) in enumerate(((w, 0), (w_tau, 0), (w_tau, tau_hat[i]))):
            decided, energies = detect_frame(wave, params, shift)
            if (decided != payload[i]).sum() != errors[i, column]:
                assert np.abs(energies - params.threshold).min() <= NEAR_TIE_REL * params.threshold
                event("near-tie excused")


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
    batched = sum(harness._execute(replace(config, seed=seed)) for seed in range(runs))
    for i, (snr, pairs, _, _) in enumerate(harness._cells(config)):
        alone = harness._execute(replace(
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
    batched = np.stack([harness._execute(replace(config, seed=seed))[:, -3:] for seed in range(runs)])
    for i, (snr, n, _, _) in enumerate(harness._cells(config)):
        cell = replace(config, snr_grid_db=(snr,), symbol_samples=(n,))
        alone = np.stack(
            [harness._execute(replace(cell, seed=seed))[0, -3:] for seed in range(runs, 2 * runs)]
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
    monkeypatch.setattr(harness, "scan_sto", lambda sums, *rest: np.full(len(sums), 3))
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
    # malformed grids, an empty range, flags that no longer exist and an abbreviation
    for argv in (
        ["mae", "--snr", "0:10"], ["mae", "--snr", "10:0:5"], ["mae", "--snr", "0:inf:5"],
        ["hist", "--tau", "6..4"], ["mae", "--snr-range", "0:10:5"],
        ["hist", "--tau-set", "-6..-4"], ["mae", "--k", "5"], ["hist", "--k", "5"],
        ["ber", "--tri", "10"],
    ):
        assert cli_main(argv) == 2, argv
    capsys.readouterr()
    # hist reads no N, and --n is not taken as a prefix of --np
    assert cli_main(["hist", "--n", "50"]) == 2
    assert "unrecognized arguments: --n 50" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--tau", "20"], "tau"), (["--np", "3"], "pilot_bit_samples"),
        (["--trials", "0"], "trials"), (["--snr", "nan"], "finite"),
        (["--threads", "-3"], "threads"), (["--threads", "0"], "threads"),
        (["--snr", "-4000"], "-4000"), (["--seed", "-1"], "seed"),
        # only ber sweeps N, and a flag that a subcommand lacks is no prefix of another
        (["--n", "50,100"], "arguments: --n 50,100"),
        # a repeated grid value names its axis and the value
        (["--tau", "-10..-5,-6"], "tau_choices repeats the value -6"),
        (["--snr", "0:20:5,10"], "snr_grid_db repeats the value 10.0"),
        (["--pairs", "20,20"], "pilot_pairs repeats the value 20"),
        (["--n", "50,50"], "arguments: --n 50,50"),
    ],
)
def test_cli_bad_value_exits_2_before_any_trial(tmp_path, capsys, run_spy, flags, word):
    out = tmp_path / "x.csv"
    assert cli_main(["mae", "--snr", "5", *flags, "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert run_spy == [] and not out.exists()


def test_cli_list_flags_refuse_oversized_lists_before_expanding(tmp_path, capsys, run_spy):
    assert len(cli._int_list("1..10000")) == len(cli._float_list("1:10000:1")) == cli.MAX_VALUES
    for parse, text in ((cli._int_list, "1..10000,0"), (cli._float_list, "0:10000:1")):
        with pytest.raises(argparse.ArgumentTypeError, match="more than 10000"):
            parse(text)
    # 10^18 grid points, 4*10^9 offsets and a grid of 10^8 cells must be
    # counted, never built: the CLI runs in a child whose address space is
    # capped at 1 GiB, so a parser or a config that did build them fails there
    # with a MemoryError
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    main = "import sys; from ambcsync.cli import cli_main; sys.exit(cli_main(sys.argv[1:]))"
    for argv, refusal in (
        (["mae", "--snr", "0:1e9:1e-9"], "more than 10000 values"),
        (["hist", "--tau", "-2000000000..2000000000"], "more than 10000 values"),
        (["mae", "--snr", "0:9999:1", "--pairs", "1..9999"], "more than 10000 cells"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", main, *argv], capture_output=True, text=True, preexec_fn=cap
        )
        assert proc.returncode == 2, proc.stderr
        assert refusal in proc.stderr
    # the cap is on the product of the SNR, L and N lists: 100 x 100 cells pass
    # it (and stop at the missing output directory), 100 x 101 do not
    missing = str(tmp_path / "missing" / "x.csv")
    assert cli_main(["mae", "--snr", "0:99:1", "--pairs", "1..100", "--out", missing]) == 2
    assert repr(missing) in capsys.readouterr().err
    assert cli_main(["ber", "--snr", "0:99:1", "--n", "1..101", "--out", missing]) == 2
    assert "more than 10000 cells" in capsys.readouterr().err
    assert run_spy == []


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
