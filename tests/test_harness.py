"""Experiment runners, CSV output, determinism, and the CLI."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ambcsync import (
    ChannelModel,
    ExperimentConfig,
    resolve_threads,
    run_ber,
    run_error_hist,
    run_experiment,
    run_mae,
    write_csv,
)
from ambcsync import harness
from ambcsync.cli import cli_main


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


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        run_ber(mae_config())
    with pytest.raises(ValueError):
        run_error_hist(mae_config())


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("AMBC_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads() == (os.cpu_count() or 1)
    monkeypatch.setenv("AMBC_THREADS", "5")
    assert resolve_threads(3) == 5  # env var wins over the explicit value
    assert resolve_threads() == 5


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_resolve_threads_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("AMBC_THREADS", value)
    with pytest.raises(ValueError, match="AMBC_THREADS"):
        resolve_threads(3)


def test_pool_size_capped_by_tasks_and_cores(monkeypatch):
    pools = []  # (processes, tasks) per pool started

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
    monkeypatch.delenv("AMBC_THREADS", raising=False)
    config = mae_config(snr_grid_db=(5.0,), pilot_pairs=(8,), trials=3)
    serial = run_mae(config)
    # 64 requested workers, 3 trials: 3 one-trial tasks need only 3 processes
    assert run_mae(replace(config, threads=64)) == serial
    # 64 requested workers, 100 trials: still 64 tasks, but one process per core
    config = replace(config, trials=100)
    assert run_mae(replace(config, threads=64)) == run_mae(config)
    assert pools == [(3, 3), (4, 64)]


# ------------------------------------------------------------------ determinism


def test_mae_deterministic_and_worker_independent():
    config = mae_config()
    first = run_mae(config)
    again = run_mae(config)
    assert first == again
    multi = run_mae(replace(config, threads=2))
    assert multi == first
    assert multi.to_csv() == first.to_csv()


def test_default_channel_fields_change_nothing(tmp_path):
    spelled = dict(channel=ChannelModel("rayleigh", rho=1.0), snr_reference="source")
    configs = (
        mae_config(trials=60),
        ExperimentConfig(
            kind="ber_compare", snr_grid_db=(10.0,), trials=30, pilot_pairs=(8,),
            pilot_bit_samples=16, symbol_samples=(12,), data_symbols=5,
            tau_choices=(-5, 5), seed=3, threads=1,
        ),
    )
    for i, config in enumerate(configs):
        implicit, explicit = tmp_path / f"implicit{i}.csv", tmp_path / f"explicit{i}.csv"
        run_experiment(replace(config, out_path=str(implicit)))
        run_experiment(replace(config, out_path=str(explicit), **spelled))
        assert implicit.read_bytes() == explicit.read_bytes()


def test_static_channel_worker_independent(tmp_path):
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
        outputs = set()
        for workers in (1, 4):
            path = tmp_path / f"{name}_{workers}.csv"
            run_experiment(replace(config, threads=workers, out_path=str(path)))
            outputs.add(path.read_bytes())
        assert len(outputs) == 1, name


def test_single_trial_repeatable():
    config = mae_config(trials=1, snr_grid_db=(5.0,), pilot_pairs=(8,))
    assert run_mae(config) == run_mae(config)


def test_hist_worker_independent():
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(10.0,), trials=500, pilot_pairs=(8,),
        pilot_bit_samples=16, tau_choices=(-5, 5), seed=3, threads=1,
    )
    a = run_error_hist(config)
    b = run_error_hist(replace(config, threads=2))
    assert a == b


# -------------------------------------------------------------------- results


def test_hist_is_normalized_pmf():
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(12.0,), trials=2000, pilot_pairs=(10,),
        pilot_bit_samples=20, tau_choices=(-6, 6), seed=20, threads=2,
    )
    hist = run_error_hist(config)
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
    hist = run_error_hist(config)
    pmf = hist.probabilities
    assert pmf[0] == max(pmf.values())
    assert pmf[0] > 0.6
    assert all(abs(e) <= 30 for e in pmf)


def test_mae_rows_cover_grid():
    res = run_mae(mae_config())
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
    res = run_ber(config)
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
    (_, _, no_comp, comp, ideal, bits), = run_ber(config).rows
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
    rows = run_ber(config).rows
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
    (_, _, no_comp, comp, ideal, _), = run_ber(config).rows
    for ber in (no_comp, comp, ideal):
        assert ber == pytest.approx(0.5, abs=0.02)


# ------------------------------------------------------------------- CSV output


def test_mae_csv_format(tmp_path):
    config = mae_config(trials=50, out_path=str(tmp_path / "mae.csv"))
    run_experiment(config)
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
        out_path=str(tmp_path / "hist.csv"),
    )
    result = run_experiment(config)
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
        tau_choices=(-5, 5), seed=3, threads=1, out_path=str(tmp_path / "ber.csv"),
    )
    run_experiment(config)
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


def test_cli_bad_flag_exits_2(capsys):
    assert cli_main(["mae", "--bogus"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["mae", "--snr", "5", "--snr-range", "0:10:5"]) == 2
    capsys.readouterr()


def test_cli_runtime_failure_exits_1(tmp_path, capsys):
    # detectability violation surfaces as a config error -> exit 1
    code = cli_main(
        ["mae", "--snr", "5", "--tau", "20", "--np", "30", "--trials", "10",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "tau" in capsys.readouterr().err


def test_cli_bad_threads_env_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AMBC_THREADS", "abc")
    out = tmp_path / "m.csv"
    assert cli_main(["mae", "--snr", "5", "--trials", "10", "--out", str(out)]) == 2
    assert "AMBC_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mae_writes_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli_main(
        ["mae", "--snr-range", "0:10:5", "--pairs", "8", "--np", "16",
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
         "--tau-set", "-6..-4,4..6", "--trials", "80", "--seed", "3",
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
