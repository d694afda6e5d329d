"""Experiment runners, CSV output, determinism, and the CLI."""

import argparse
import math
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
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
def inline_pools(monkeypatch):
    """Replace the runner's process pool with one that runs tasks inline on a
    4-core machine; returns the (processes, tasks) of each pool started."""
    pools = []

    class SpyContext:
        """Stands in for the multiprocessing context: its Pool records the
        requested size and runs the tasks inline, so no process starts."""

        class Pool:
            def __init__(self, processes):
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                pools.append((self.processes, len(tasks)))
                return [fn(t) for t in tasks]

    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method=None: SpyContext)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    return pools


def test_resolve_threads(inline_pools):
    # one cell of 5 blocks is 5 (cell, block) tasks
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=4 * harness.BLOCK + 1)
    # an explicit count caps the processes; the default is one per core
    run_experiment(replace(config, threads=3))
    run_experiment(replace(config, threads=None))
    assert inline_pools == [(3, 5), (4, 5)]
    for explicit in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            replace(config, threads=explicit)


def test_pool_size_capped_by_tasks_and_cores(inline_pools):
    pools = inline_pools
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=harness.BLOCK)
    serial = run_experiment(config)
    # one block is one task, which starts no pool whatever the requested count
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


# ------------------------------------------------------------------ determinism


def test_mae_deterministic_and_worker_independent():
    config = mae_config()
    first = run_experiment(config)
    again = run_experiment(config)
    assert first == again
    multi = run_experiment(replace(config, threads=2))
    assert multi == first
    assert multi.to_csv() == first.to_csv()


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


def test_static_channel_worker_independent():
    static = dict(channel=ChannelModel("static", rho=0.5), snr_reference="mean_received")
    configs = {
        "mae": mae_config(trials=120, **static),
        "ber": ExperimentConfig(
            kind="ber_compare", snr_grid_db=(5.0, 15.0), trials=40, pilot_pairs=(8,),
            pilot_bit_samples=16, symbol_samples=(12,), data_symbols=5,
            tau_choices=(-5, 5), seed=3, **static,
        ),
    }
    for name, config in configs.items():
        outputs = {run_experiment(replace(config, threads=w)).to_csv() for w in (1, 4)}
        assert len(outputs) == 1, name


@pytest.mark.parametrize(
    "trials", [harness.BLOCK - 1, harness.BLOCK, harness.BLOCK + 1, 3 * harness.BLOCK + 7]
)
def test_pilot_blocks_worker_independent(trials):
    # every kind runs one task per (cell, block), a partial block last; any
    # number of processes gives the same output, and every trial counts once
    configs = (
        mae_config(trials=trials, snr_grid_db=(10.0,)),
        mae_config(kind="error_hist", trials=trials, snr_grid_db=(10.0,), pilot_pairs=(8,)),
        mae_config(
            kind="ber_compare", trials=trials, snr_grid_db=(10.0,), pilot_pairs=(8,),
            symbol_samples=(12, 20), data_symbols=5,
        ),
    )
    for config in configs:
        outputs = {run_experiment(replace(config, threads=w)).to_csv() for w in (1, 2, 3, 5)}
        assert len(outputs) == 1, config.kind
        counts = harness._execute(replace(config, threads=5))
        assert [int(c[:-3].sum()) for c in counts] == [trials] * len(counts), config.kind


def test_single_trial_repeatable():
    config = mae_config(trials=1, snr_grid_db=(5.0,), pilot_pairs=(8,))
    assert run_experiment(config) == run_experiment(config)


def test_hist_worker_independent():
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(10.0,), trials=500, pilot_pairs=(8,),
        pilot_bit_samples=16, tau_choices=(-5, 5), seed=3, threads=1,
    )
    a = run_experiment(config)
    b = run_experiment(replace(config, threads=2))
    assert a == b


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
    """The earlier BER layout, on ``config``'s one cell: every trial draws
    from its own (seed, cell, trial) substream. Returns the error histogram
    and each frame's bit errors under ideal sync, no and estimated compensation."""
    (snr,), (pairs,), (n,) = config.snr_grid_db, config.pilot_pairs, config.symbol_samples
    frame = FrameConfig(harness.PREAMBLE_BITS, pairs, config.pilot_bit_samples, config.data_symbols, n)
    noise = config.channel.noise_for_snr(snr, config.snr_reference)
    taus = config.tau_choices
    hist, errors = Counter(), np.zeros((config.trials, 3), dtype=np.int64)
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
        hist[tau - tau_hat] += 1
        params = DetectorParams.from_powers(n, ch.p0, ch.p1)
        for i, (wave, shift) in enumerate(((w, 0), (w_sto, 0), (w_sto, tau_hat))):
            errors[trial, i] = (detect_frame(wave, params, shift)[0] != payload).sum()
    return hist, errors


def test_ber_block_stream_keeps_the_frame_law():
    # a BER block draws its offsets and channels first, then each frame's
    # payload and samples, all from the block's one substream; the earlier
    # layout gave each trial its own. Both must give one law: chi-square
    # homogeneity of the error histograms and a two-sample z-test of each BER
    # column (the per-trial loop's per-frame variance), 10,000 trials each,
    # on both channels
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
        hist, errors = per_trial_ber_frames(config, seed=2)
        p_value = homogeneity_p(blocks, hist)
        assert p_value > STREAM_LAW_P_MIN, (channel, p_value)
        trials = config.trials
        se = np.sqrt(2 * errors.var(axis=0, ddof=1) / trials)
        z = (counts[-3:] / trials - errors.mean(axis=0)) / se
        assert np.all(np.abs(z) <= STREAM_LAW_Z_MAX), (channel, z)


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
    monkeypatch.setattr(harness, "scan_sto", lambda sums, rows: np.full(len(sums), 3))
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
        (["--n", "50,100"], "symbol_samples"),
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
