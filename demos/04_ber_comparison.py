#!/usr/bin/env python3
"""Paired bit-error-rate comparison: broken clock vs compensated vs ideal.

Each trial draws one frame's window energies and decides its payload three
ways from the same samples, so the three curves differ only in receiver
processing.
"""

from ambcsync import ExperimentConfig, run_experiment

config = ExperimentConfig(
    kind="ber_compare",
    snr_grid_db=(5.0, 10.0, 15.0, 20.0),
    trials=2000,
    pilot_pairs=(30,),
    pilot_bit_samples=30,
    symbol_samples=(100,),
    data_symbols=50,
    tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11)),
    seed=42,
)

result = run_experiment(config)

print(f"energy detection, N=100 samples/symbol, {config.trials * config.data_symbols} bits/point\n")
print("snr_db |  no comp | estimated |    ideal")
print("-------+----------+-----------+---------")
for snr, _, no_comp, comp, ideal, _ in result.rows:
    print(f"{snr:6.1f} | {no_comp:8.5f} | {comp:9.5f} | {ideal:8.5f}")

print(
    "\ncompensating with the pilot-based estimate recovers most of the loss\n"
    "an uncorrected sampling clock causes; the residual gap to ideal comes\n"
    "from the occasional estimation miss on low-contrast fading draws."
)
