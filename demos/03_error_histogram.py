#!/usr/bin/env python3
"""Empirical distribution of the timing-estimation error.

Offsets are drawn uniformly from {-10..-5} u {5..10}; the signed error
tau - tau_hat concentrates at zero with steep, symmetric shoulders.
"""

from ambcsync import ExperimentConfig, run_experiment

config = ExperimentConfig(
    kind="error_hist",
    snr_grid_db=(15.0,),
    trials=20_000,
    pilot_pairs=(30,),
    pilot_bit_samples=30,
    tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11)),
    seed=42,
)

pmf = run_experiment(config).probabilities

print(f"signed estimation error over {config.trials} trials at 15 dB, L=30\n")
for eps in range(-8, 9):
    p = pmf.get(eps, 0.0)
    bar = "#" * round(300 * p)
    print(f"  {eps:+3d}  {p:8.5f}  {bar}")
tail = sum(p for e, p in pmf.items() if abs(e) > 8)
print(f"\n  P(|error| > 8) = {tail:.5f} (spread across {sum(abs(e) > 8 for e in pmf)} values)")
