#!/usr/bin/env python3
"""Timing-estimation accuracy versus SNR for several pilot lengths.

A scaled-down version of the accuracy sweep (the CLI / acceptance suite run
100k trials per point; this prints a table from 4k in under a minute).
"""

from ambcsync import ExperimentConfig, run_experiment

config = ExperimentConfig(
    kind="mae_vs_snr",
    snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
    trials=4000,
    pilot_pairs=(20, 30, 40),
    pilot_bit_samples=30,
    tau_choices=(-10, 10),
    seed=42,
)

result = run_experiment(config)

pairs = config.pilot_pairs
print(f"mean |tau - tau_hat| over {config.trials} trials/point, offset = +/-10 samples\n")
print("snr_db | " + " | ".join(f"L={p:2d} " for p in pairs))
print("-------+" + "+".join(["-------"] * len(pairs)))
by_snr = {}
for snr, p, mae, _ in result.rows:
    by_snr.setdefault(snr, {})[p] = mae
for snr in config.snr_grid_db:
    cells = " | ".join(f"{by_snr[snr][p]:5.3f}" for p in pairs)
    print(f"{snr:6.1f} | {cells}")

print(
    "\nlonger pilots and higher SNR both help, but the curve flattens into a\n"
    "fading-limited floor: draws where the reflecting and absorbing powers\n"
    "nearly coincide stay ambiguous no matter how clean the samples are."
)
