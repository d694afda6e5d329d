"""Golden CSVs: a few hundred seeded trials per experiment kind, byte for byte.

Any change to the random-stream layout or the trial pipeline shows up here
as a diff of the files under ``tests/golden/``. Regenerate them, when such a
change is intended and recorded, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from pathlib import Path

import pytest

from ambcsync import ChannelModel, ExperimentConfig, harness, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "mae": dict(
        kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=300, pilot_pairs=(8, 16),
        pilot_bit_samples=16, tau_choices=(-5, 5), seed=101,
    ),
    "hist": dict(
        kind="error_hist", snr_grid_db=(10.0,), trials=400, pilot_pairs=(8,),
        pilot_bit_samples=16, tau_choices=(-6, -5, 5, 6), seed=102,
    ),
    "ber": dict(
        kind="ber_compare", snr_grid_db=(5.0, 15.0), trials=200, pilot_pairs=(8,),
        pilot_bit_samples=16, symbol_samples=(12, 20), data_symbols=5,
        tau_choices=(-5, -4, 4, 5), seed=103, channel=ChannelModel("static", rho=0.5),
        snr_reference="mean_received",
    ),
}


# at 2 and 3 workers, the batch tasks run on more than one process:
# these runs are too small to pay for a worker, so the break-even is
# lowered to 1 µs, at which every batch is worth a process of its own
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_csv_reproduced(name, threads, monkeypatch):
    monkeypatch.setattr(harness, "FORK_BREAK_EVEN_US", 1)
    config = ExperimentConfig(**CONFIGS[name], threads=threads)
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert run_experiment(config).to_csv() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fields in CONFIGS.items():
        text = run_experiment(ExperimentConfig(**fields, threads=1)).to_csv()
        (GOLDEN / f"{name}.csv").write_text(text, encoding="utf-8", newline="\n")
        print(f"{name}: {text.count(chr(10)) - 1} rows -> {GOLDEN / name}.csv")
