#!/usr/bin/env python3
"""Single-frame walkthrough of the whole receive pipeline.

Builds one backscatter frame, knocks the receiver's sampling clock off by a
few samples, recovers the offset from the pilot likelihood scan, realigns,
and detects the payload.  Everything is seeded, so the printout is stable.
"""

import numpy as np

from ambcsync import (
    ChannelModel,
    ChannelState,
    DetectorParams,
    FrameConfig,
    apply_sto,
    build_bit_sequence,
    collect_windows,
    detect_frame,
    estimate_sto,
    synthesize_received,
)

SEED = 7
TAU_TRUE = -8  # receiver wakes up 8 samples early

rng = np.random.default_rng(SEED)
cfg = FrameConfig(
    pilot_pairs=30,
    pilot_bit_samples=30,
    data_symbols=24,
    data_symbol_samples=50,
)
noise = ChannelModel().noise_for_snr(15.0)  # unit source power, 15 dB SNR
channel = ChannelState.from_coefficients(
    h=0.9 + 0.3j, zeta=1.1 - 0.2j, g=0.8 + 0.5j, noise=noise
)

print("frame geometry")
print(f"  pilot: {cfg.pilot_pairs} alternating bit-pairs x {cfg.pilot_bit_samples} samples")
print(f"  payload: {cfg.data_symbols} symbols x {cfg.data_symbol_samples} samples")
print(f"  total samples: {cfg.total_samples}")
print(f"  on/off received powers: p1={channel.p1:.3f}, p0={channel.p0:.3f}")

payload = rng.integers(0, 2, size=cfg.data_symbols)
bits = build_bit_sequence(cfg, payload=payload)
ideal = synthesize_received(bits, cfg, channel, rng)
received = apply_sto(ideal, TAU_TRUE)
print(f"\ninjected sampling-clock offset: {TAU_TRUE} samples")

pilot_matrix = collect_windows(received)
estimate = estimate_sto(pilot_matrix)
print(f"\npilot matrix: {pilot_matrix.shape[0]} x {pilot_matrix.shape[1]}")
print("likelihood scan around the peak:")
for n0 in range(max(2, estimate.n0_hat - 3), min(cfg.pilot_bit_samples, estimate.n0_hat + 4)):
    # the scan's profile arrays are indexed by n0 - 2
    s1, s2, loglik = (v[n0 - 2] for v in (estimate.s1, estimate.s2, estimate.loglik))
    mark = " <-- argmax" if n0 == estimate.n0_hat else ""
    print(f"  n0={n0:2d}  s1^2={s1:7.3f}  s2^2={s2:7.3f}  loglik={loglik:10.2f}{mark}")
print(f"estimate: transition at n0={estimate.n0_hat} -> tau_hat={estimate.tau_hat}")
print(f"estimation error: {TAU_TRUE - estimate.tau_hat}")

params = DetectorParams.from_powers(cfg.data_symbol_samples, channel.p0, channel.p1)
print(f"\nenergy detector threshold: {params.threshold:.2f}")
for label, tau_hat in (("no compensation", 0), ("estimated compensation", estimate.tau_hat)):
    decided, _ = detect_frame(received, params, tau_hat)
    errors = int((decided != payload).sum())
    print(f"  {label:>24}: {errors}/{decided.size} payload bits wrong")
