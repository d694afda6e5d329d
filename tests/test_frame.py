"""Frame construction, waveform synthesis, and sampling-clock offsets."""

import numpy as np
import pytest
from scipy import stats

from ambcsync import (
    ChannelState,
    FrameConfig,
    apply_sto,
    build_bit_sequence,
    synthesize_received,
    trial_rng,
)
from ambcsync.signal_model import gen_cgn_block


def cfg_for(preamble=1, pairs=2, np_samples=8, k=0, n=8):
    return FrameConfig(
        preamble_bits=preamble,
        pilot_pairs=pairs,
        pilot_bit_samples=np_samples,
        data_symbols=k,
        data_symbol_samples=n,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_for(preamble=0)
    with pytest.raises(ValueError):
        cfg_for(pairs=0)
    with pytest.raises(ValueError):
        cfg_for(np_samples=3)
    with pytest.raises(ValueError):
        cfg_for(n=0)
    with pytest.raises(ValueError):
        FrameConfig(1, 1, 8, -1, 8)


def test_bit_sequence_layout():
    bits = build_bit_sequence(cfg_for(preamble=2, pairs=2))
    assert bits.tolist() == [1, 1, 0, 1, 0, 1, 0]  # trailing guard zero
    bits = build_bit_sequence(cfg_for(preamble=1, pairs=1))
    assert bits.tolist()[1:3] == [0, 1]


def test_bit_sequence_payload_passthrough():
    cfg = cfg_for(pairs=1, k=4)
    bits = build_bit_sequence(cfg, payload=np.array([1, 0, 1, 1]))
    assert bits.tolist() == [1, 0, 1, 1, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        build_bit_sequence(cfg, payload=np.array([1, 0]))


def test_bit_sequence_random_payload_needs_rng():
    cfg = cfg_for(k=3)
    with pytest.raises(ValueError):
        build_bit_sequence(cfg)


def test_waveform_geometry():
    cfg = cfg_for(preamble=2, pairs=3, np_samples=10, k=4, n=6)
    noise = 1.0
    ch = ChannelState.from_coefficients(1, 0.5, 0.5, noise)
    bits = build_bit_sequence(cfg, payload=np.array([1, 0, 0, 1]))
    w = synthesize_received(bits, cfg, ch, np.random.default_rng(2))
    assert w.pilot_start == 2 * 10
    assert w.data_start == 2 * 10 + 2 * 3 * 10
    # preamble + pilot + payload + one guard bit of N samples
    assert w.samples.size == 2 * 10 + 6 * 10 + 4 * 6 + 6 == cfg.total_samples


def test_synthesis_without_backscatter_is_direct_path_only():
    # all-zero bits: y(n) == sqrt(p0) * z(n) with z replayable from the seed,
    # where p0 = |h|^2 + sigma_w^2 whatever zeta and g are
    cfg = cfg_for(pairs=2, np_samples=8)
    noise = 0.25
    h = 0.7 - 0.2j
    ch = ChannelState.from_coefficients(h, 0.9, 1.1, noise)
    assert ch.p0 == pytest.approx(abs(h) ** 2 + 0.25, rel=1e-12)
    bits = np.zeros(cfg.total_bits, dtype=int)
    w = synthesize_received(bits, cfg, ch, np.random.default_rng(5))
    z = gen_cgn_block(cfg.total_samples, np.random.default_rng(5))
    assert np.array_equal(w.samples, np.sqrt(ch.p0) * z)


def test_synthesis_all_reflecting_power():
    # all-one bits, zero noise: sample power ~ |mu|^2 within 1%
    cfg = cfg_for(pairs=1, np_samples=8, k=10_000, n=100)
    noise = 0.0
    h, zeta, g = 0.3 + 0.4j, 1.0, 1.0
    ch = ChannelState.from_coefficients(h, zeta, g, noise)
    bits = np.ones(cfg.total_bits, dtype=int)
    w = synthesize_received(bits, cfg, ch, np.random.default_rng(8))
    power = np.mean(np.abs(w.samples) ** 2)
    assert power == pytest.approx(abs(h + zeta * g) ** 2, rel=0.01)


def test_synthesis_segment_powers_when_backscatter_cancels():
    # h=1, zeta=1, g=-1 gives mu=0: reflecting bits carry only noise power
    cfg = cfg_for(pairs=1, np_samples=8, k=20, n=50_000)
    noise = 1.0
    ch = ChannelState.from_coefficients(1.0, 1.0, -1.0, noise)
    payload = np.tile([0, 1], 10)
    bits = build_bit_sequence(cfg, payload=payload)
    w = synthesize_received(bits, cfg, ch, np.random.default_rng(13))
    data = w.samples[w.data_start : w.data_start + 20 * 50_000].reshape(20, 50_000)
    p = np.mean(np.abs(data) ** 2, axis=1)
    zeros, ones = p[::2], p[1::2]
    assert np.all(np.abs(zeros - 2.0) < 0.04)  # |h|^2 + noise
    assert np.all(np.abs(ones - 1.0) < 0.02)  # noise only


def synth_pilot(np_samples=30, pairs=4, seed=3, sigma_w_sq=0.0, h=1.0, zeta=1.0, g=1.0):
    cfg = cfg_for(pairs=pairs, np_samples=np_samples, n=np_samples)
    noise = sigma_w_sq
    ch = ChannelState.from_coefficients(h, zeta, g, noise)
    bits = build_bit_sequence(cfg)
    w = synthesize_received(bits, cfg, ch, np.random.default_rng(seed))
    return w, cfg, ch


def test_apply_sto_zero_is_identity():
    w, _, _ = synth_pilot()
    shifted = apply_sto(w, 0)
    assert shifted.pilot_start == w.pilot_start
    assert shifted.data_start == w.data_start
    assert shifted.samples is w.samples


def test_apply_sto_roundtrip_and_sample_conservation():
    w, _, _ = synth_pilot()
    back = apply_sto(apply_sto(w, -7), 7)
    assert back.pilot_start == w.pilot_start
    assert back.data_start == w.data_start
    assert back.samples.size == w.samples.size


def test_apply_sto_rejects_undetectable_and_unabsorbable_shifts():
    w, cfg, _ = synth_pilot(np_samples=20)
    with pytest.raises(ValueError):
        apply_sto(w, 10)  # 2|tau| == N_p
    with pytest.raises(ValueError):
        apply_sto(w, -10)
    # a shift past the guard is caught by the range check
    big = FrameConfig(1, 1, 64, 0, 4)
    noise = 1.0
    ch = ChannelState.from_coefficients(1, 1, 1, noise)
    wav = synthesize_received(build_bit_sequence(big), big, ch, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_sto(wav, 20)  # detectable (2*20 < 64) but guard is only 4 samples


def first_one_window(w, cfg):
    start = w.pilot_start + cfg.pilot_bit_samples
    return w.samples[start : start + cfg.pilot_bit_samples]


def test_advanced_clock_pulls_previous_bit_head():
    # tau = -3: each nominal "1" window starts with 3 samples of the
    # preceding "0" bit (direct path only), the rest reflect
    w, cfg, ch = synth_pilot(np_samples=12, seed=21)
    s = gen_cgn_block(cfg.total_samples, np.random.default_rng(21))
    shifted = apply_sto(w, -3)
    for pair in range(cfg.pilot_pairs):
        start = shifted.pilot_start + (2 * pair + 1) * cfg.pilot_bit_samples
        window = shifted.samples[start : start + cfg.pilot_bit_samples]
        true_start = w.pilot_start + (2 * pair + 1) * cfg.pilot_bit_samples - 3
        seg = s[true_start : true_start + cfg.pilot_bit_samples]
        expected = np.concatenate([np.sqrt(ch.p0) * seg[:3], np.sqrt(ch.p1) * seg[3:]])
        assert np.allclose(window, expected, rtol=0, atol=0)


def test_delayed_clock_pulls_next_bit_tail():
    w, cfg, ch = synth_pilot(np_samples=12, seed=22)
    s = gen_cgn_block(cfg.total_samples, np.random.default_rng(22))
    shifted = apply_sto(w, 3)
    for pair in range(cfg.pilot_pairs):
        start = shifted.pilot_start + (2 * pair + 1) * cfg.pilot_bit_samples
        window = shifted.samples[start : start + cfg.pilot_bit_samples]
        true_start = w.pilot_start + (2 * pair + 1) * cfg.pilot_bit_samples + 3
        seg = s[true_start : true_start + cfg.pilot_bit_samples]
        expected = np.concatenate([np.sqrt(ch.p1) * seg[:-3], np.sqrt(ch.p0) * seg[-3:]])
        assert np.allclose(window, expected, rtol=0, atol=0)


def test_matching_neighbor_bits_leave_window_homogeneous():
    # within a run of identical bits an offset window keeps a single variance:
    # two-sided F test on the head/tail split at significance 0.01
    n = 10_000
    cfg = cfg_for(pairs=1, np_samples=16, k=3, n=n)
    noise = 0.5
    ch = ChannelState.from_coefficients(1.0, 0.8, 0.6, noise)
    bits = build_bit_sequence(cfg, payload=np.array([1, 1, 1]))
    w = synthesize_received(bits, cfg, ch, np.random.default_rng(17))
    shifted = apply_sto(w, 5)
    # middle payload symbol: neighbors carry the same bit
    start = shifted.data_start + n
    window = shifted.samples[start : start + n]
    head, tail = window[:5000], window[5000:]
    ratio = np.mean(np.abs(head) ** 2) / np.mean(np.abs(tail) ** 2)
    df1, df2 = 2 * head.size, 2 * tail.size
    lo, hi = stats.f.ppf(0.005, df1, df2), stats.f.ppf(0.995, df1, df2)
    assert lo < ratio < hi
