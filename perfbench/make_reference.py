"""Regenerate ``reference.json``, the values the benchmark's statistical checks use.

Run from the repository root:

    python3 perfbench/make_reference.py [--workers 2]

MAE cells come from one large ``error_hist`` run per (SNR, L) cell: the pmf
gives both the mean absolute error and the per-trial standard deviation of
|error|.  BER cells come from independent batches of ``ber_compare`` runs;
the spread of the batch means gives the per-trial standard deviation of the
frame error fraction.  The seeds lie far from the small seeds the benchmark
is run with, so reference and benchmark samples are independent.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ambcsync import ExperimentConfig, run_experiment  # noqa: E402

from workloads import WORKLOADS, make_config  # noqa: E402

REFERENCE_SEED = 900_001
MAE_TRIALS = 20_000
BER_BATCHES = 80
BER_BATCH_TRIALS = 250


def mae_reference(workers: int) -> list[dict]:
    cells = sorted(
        {
            (snr, pairs, cfg["pilot_bit_samples"], cfg["tau_choices"])
            for _, cfg in WORKLOADS.values()
            if cfg["kind"] == "mae_vs_snr"
            for snr in cfg["snr_grid_db"]
            for pairs in cfg["pilot_pairs"]
        }
    )
    rows = []
    for snr, pairs, n_p, taus in cells:
        config = ExperimentConfig(
            kind="error_hist", snr_grid_db=(snr,), trials=MAE_TRIALS,
            pilot_pairs=(pairs,), pilot_bit_samples=n_p, tau_choices=taus,
            seed=REFERENCE_SEED, threads=workers,
        )
        pmf = run_experiment(config).probabilities
        mae = sum(abs(e) * p for e, p in pmf.items())
        second = sum(e * e * p for e, p in pmf.items())
        rows.append(
            dict(snr_db=snr, L=pairs, mae=mae, sd=math.sqrt(max(second - mae * mae, 0.0)),
                 trials=MAE_TRIALS)
        )
        print(f"mae snr={snr:g} L={pairs}: {mae:.4f}", file=sys.stderr)
    return rows


def ber_reference(workers: int) -> list[dict]:
    base = replace(make_config("ber_paired", REFERENCE_SEED, BER_BATCH_TRIALS), threads=workers)
    batches = [
        run_experiment(replace(base, seed=REFERENCE_SEED + b)).rows for b in range(BER_BATCHES)
    ]
    rows = []
    for i, (snr, n, *_rest) in enumerate(batches[0]):
        row = dict(snr_db=snr, N=n, trials=BER_BATCHES * BER_BATCH_TRIALS)
        columns = {"ber_no_comp": 2, "ber_comp": 3, "ber_ideal": 4}
        for name, col in columns.items():
            values = [batch[i][col] for batch in batches]
            row[name] = statistics.fmean(values)
            row[name + "_sd"] = statistics.stdev(values) * math.sqrt(BER_BATCH_TRIALS)
        # paired differences, for the ordering check
        for name, (hi, lo) in (("no_comp_minus_comp", (2, 3)), ("comp_minus_ideal", (3, 4))):
            diffs = [batch[i][hi] - batch[i][lo] for batch in batches]
            row[name + "_sd"] = statistics.stdev(diffs) * math.sqrt(BER_BATCH_TRIALS)
        rows.append(row)
        print(f"ber snr={snr:g} N={n}: {row}", file=sys.stderr)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    reference = {
        "seed": REFERENCE_SEED,
        "mae": mae_reference(args.workers),
        "ber": ber_reference(args.workers),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
