"""Benchmark workloads: each one is an ``ExperimentConfig`` made from a seed.

The paper's settings are N_p = 30 samples per pilot bit, L = 20/30/40 pilot
pairs, N = 50/100 samples per payload bit and K = 50 payload bits.  The
seed only selects the random substreams; the grid, the trial counts and the
frame geometry are fixed per workload, so the work done per run is fixed.
"""

from __future__ import annotations

from ambcsync import ExperimentConfig

DEFAULT_SEED = 1

BER_TAUS = tuple(range(-10, -4)) + tuple(range(5, 11))

# name -> (why it is in the benchmark, ExperimentConfig fields)
WORKLOADS = {
    "mae_sweep": (
        "criterion-1 MAE cells with many trials each: waveform synthesis and "
        "the pilot scan dominate, the detector never runs",
        dict(
            kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=1000,
            pilot_pairs=(20, 30, 40), pilot_bit_samples=30, tau_choices=(-10, 10),
        ),
    ),
    "ber_paired": (
        "paired BER at the paper's settings: payload synthesis, three detector "
        "calls per trial and the channel-redraw loop",
        dict(
            kind="ber_compare", snr_grid_db=(5.0, 10.0, 15.0, 20.0), trials=300,
            pilot_pairs=(30,), pilot_bit_samples=30, symbol_samples=(50, 100),
            data_symbols=50, tau_choices=BER_TAUS,
        ),
    ),
    "mae_quick_grid": (
        "the README's 27-cell MAE grid with few trials per cell: per-cell, "
        "per-task and pool-start costs of the harness weigh most",
        dict(
            kind="mae_vs_snr", snr_grid_db=tuple(2.5 * i for i in range(9)),
            trials=40, pilot_pairs=(20, 30, 40), pilot_bit_samples=30,
            tau_choices=(-10, 10),
        ),
    ),
}


def config_fields(name: str, seed: int, trials: int | None = None) -> dict:
    """Keyword arguments of the workload's ExperimentConfig (threads unset)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    fields = dict(WORKLOADS[name][1], seed=seed)
    if trials is not None:
        fields["trials"] = trials
    return fields


def make_config(name: str, seed: int, trials: int | None = None) -> ExperimentConfig:
    return ExperimentConfig(**config_fields(name, seed, trials))

