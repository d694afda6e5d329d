"""Clock compensation, threshold computation, and energy decisions."""

import math

import numpy as np
import pytest

from ambcsync import (
    ChannelState,
    DegenerateChannelError,
    DetectorParams,
    FrameConfig,
    Waveform,
    apply_sto,
    build_bit_sequence,
    compensate,
    detect_frame,
    ed_threshold,
    synthesize_received,
)
from oracles import mp_threshold


# ------------------------------------------------------------------- ed_threshold


def test_threshold_reference_point():
    # frozen from the 50-digit oracle: N=50, p0=1, p1=2
    t = ed_threshold(50, 1.0, 2.0)
    assert t == pytest.approx(68.02527382656274, abs=1e-4)
    assert t == pytest.approx(mp_threshold(50, 1, 2), rel=1e-12)


def test_threshold_symbolic_point():
    # N=1, p0=1, p1=e makes the log term exactly 1
    e = math.e
    expected = (e / (1 + e)) * (1 + math.sqrt(1 + 2 * (1 + e) / (e - 1)))
    t = ed_threshold(1, 1.0, e)
    assert t == pytest.approx(expected, rel=1e-12)
    assert t == pytest.approx(2.4185069277322387, rel=1e-12)


def test_threshold_degenerate_and_invalid():
    with pytest.raises(DegenerateChannelError):
        ed_threshold(50, 1.5, 1.5)
    with pytest.raises(ValueError):
        ed_threshold(0, 1.0, 2.0)
    with pytest.raises(ValueError):
        ed_threshold(10, 0.0, 2.0)
    with pytest.raises(ValueError):
        ed_threshold(10, 1.0, -2.0)


def test_threshold_between_hypothesis_means():
    # the upper bound T < N*p1 holds exactly when N (r-1)^2 > 2 ln r, so the
    # sweep keeps ratios clear of 1; the lower bound holds unconditionally
    for n in (10, 30, 100, 300, 1000):
        for p0 in (0.2, 1.0, 4.0):
            for ratio in (1.5, 2.0, 5.0, 10.0, 100.0):
                p1 = p0 * ratio
                t = ed_threshold(n, p0, p1)
                assert n * p0 < t < n * p1
                # swapped ordering is sandwiched the same way
                t_swap = ed_threshold(n, p1, p0)
                assert n * p0 < t_swap < n * p1


def test_threshold_upper_bound_condition_is_sharp():
    # just either side of N (r-1)^2 = 2 ln r the bound flips
    for n in (10, 100, 1000):
        for r in (1.01, 1.1, 1.3):
            t = ed_threshold(n, 1.0, r)
            assert 1.0 * n < t
            if n * (r - 1) ** 2 > 2 * math.log(r):
                assert t < n * r
            else:
                assert t >= n * r


def test_threshold_matches_oracle_across_grid():
    for n in (10, 100, 1000):
        for p0 in (0.5, 2.0):
            for ratio in (1.0001, 2.0, 50.0):
                t = ed_threshold(n, p0, p0 * ratio)
                assert t == pytest.approx(mp_threshold(n, p0, p0 * ratio), rel=1e-10)


def test_threshold_increases_with_window_size():
    values = [ed_threshold(n, 1.0, 3.0) for n in range(10, 1000, 37)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_stable_near_equal_powers():
    # ratio 1 + 1e-12: the log1p form keeps the radicand accurate, and the
    # value converges to the analytic equal-power limit (N p0 / 2)(1 + sqrt(1 + 4/N))
    n, p0 = 100, 1.0
    t = ed_threshold(n, p0, p0 * (1 + 1e-12))
    assert np.isfinite(t)
    limit = (n * p0 / 2) * (1 + math.sqrt(1 + 4 / n))
    assert t == pytest.approx(limit, rel=1e-9)


def test_threshold_array_matches_scalar_calls():
    # the block sampler computes a block's thresholds in one call; each one
    # must equal the scalar call on its own power pair, bit for bit
    rng = np.random.default_rng(8)
    p0 = rng.exponential(size=10_000) * 10.0 ** rng.uniform(-3, 3, size=10_000)
    p1 = rng.exponential(size=10_000) * 10.0 ** rng.uniform(-3, 3, size=10_000)
    for n in (1, 12, 50, 100):
        thresholds = ed_threshold(n, p0, p1)
        assert thresholds.shape == (10_000,)
        assert thresholds.tolist() == [ed_threshold(n, a, b) for a, b in zip(p0, p1)]
    # broadcasting: a column of powers against one scalar power
    column = ed_threshold(20, p0[:5, None], 2.0)
    assert column.shape == (5, 1)
    assert column.ravel().tolist() == [ed_threshold(20, a, 2.0) for a in p0[:5]]


def test_threshold_array_refusals():
    good = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateChannelError, match="p0 == p1 == 2.0"):
        ed_threshold(50, good, np.array([2.0, 2.0, 4.0]))
    with pytest.raises(ValueError, match="positive"):
        ed_threshold(50, good, np.array([2.0, 0.0, 4.0]))
    with pytest.raises(ValueError, match="positive"):
        ed_threshold(50, -good, 1.5)
    with pytest.raises(ValueError, match="n_samples"):
        ed_threshold(0, good, 1.5)


# ------------------------------------------------ energy statistic and decisions


def frame_with_windows(windows):
    """A noiseless frame whose k-th payload window holds ``windows[k]``."""
    windows = np.asarray(windows, dtype=complex)
    k, n = windows.shape
    cfg = FrameConfig(1, 1, 4, k, n)
    samples = np.zeros(cfg.total_samples, dtype=complex)
    samples[cfg.data_start : cfg.data_start + k * n] = windows.ravel()
    return Waveform(samples, cfg)


def unit_window(energy, n=16):
    """``energy`` unit samples then zeros: the window energy is exact."""
    return np.r_[np.ones(energy), np.zeros(n - energy)]


ANY_PARAMS = DetectorParams(p0=1.0, p1=2.0, threshold=15.0)


def test_energy_statistic_basic():
    w = frame_with_windows([np.zeros(4), np.exp(1j * np.array([0.1, 1.2, 2.3, 3.4]))])
    _, energies = detect_frame(w, ANY_PARAMS, 0)
    assert energies[0] == 0.0
    assert energies[1] == pytest.approx(4.0, rel=1e-12)


def test_energy_statistic_matches_naive_sum():
    rng = np.random.default_rng(6)
    for size in (3, 100, 1000, 4096):
        window = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        naive = 0.0
        for z in window:  # two-pass style reference accumulation
            naive += z.real * z.real + z.imag * z.imag
        w = frame_with_windows([window])
        _, energies = detect_frame(w, ANY_PARAMS, 0)
        assert energies[0] == pytest.approx(naive, rel=1e-12)


def test_decide_orientations():
    w = frame_with_windows([unit_window(16), unit_window(14)])
    up = DetectorParams(p0=1.0, p1=2.0, threshold=15.0)
    assert detect_frame(w, up, 0)[0].tolist() == [1, 0]
    down = DetectorParams(p0=2.0, p1=1.0, threshold=15.0)
    assert detect_frame(w, down, 0)[0].tolist() == [0, 1]


def test_decide_boundary_goes_to_geq_branch():
    w = frame_with_windows([unit_window(15)])
    up = DetectorParams(p0=1.0, p1=2.0, threshold=15.0)
    down = DetectorParams(p0=2.0, p1=1.0, threshold=15.0)
    assert detect_frame(w, up, 0)[0].tolist() == [1]
    assert detect_frame(w, down, 0)[0].tolist() == [0]


def test_decide_swap_relabel_symmetry():
    # threshold formula is symmetric in (p0, p1); swapping powers and
    # relabeling hypotheses complements every decision
    t = ed_threshold(50, 1.0, 3.0)
    assert t == pytest.approx(ed_threshold(50, 3.0, 1.0), rel=1e-14)
    windows = [np.r_[np.sqrt(gamma), np.zeros(49)] for gamma in (0.0, t / 2, t, t * 1.5)]
    w = frame_with_windows(windows)
    # put the threshold exactly on the third window's energy
    _, energies = detect_frame(w, ANY_PARAMS, 0)
    assert energies[2] == pytest.approx(t, rel=1e-14)
    a = DetectorParams(1.0, 3.0, energies[2])
    b = DetectorParams(3.0, 1.0, energies[2])
    bits_a, _ = detect_frame(w, a, 0)
    bits_b, _ = detect_frame(w, b, 0)
    assert bits_a.tolist() == [0, 0, 1, 1]
    assert (bits_a == 1 - bits_b).all()


def test_detector_params_from_powers():
    params = DetectorParams.from_powers(50, 1.0, 2.0)
    assert params.threshold == pytest.approx(68.02527382656274, abs=1e-4)
    with pytest.raises(DegenerateChannelError):
        DetectorParams.from_powers(50, 2.0, 2.0)


# -------------------------------------------------------------------- compensate


def make_frame(k=8, n=20, tau_payload=None, seed=2, snr_db=20.0, h=1.0, zeta=1.0, g=1.0):
    cfg = FrameConfig(1, 4, 30, k, n)
    noise = 10 ** (-snr_db / 10)
    ch = ChannelState.from_coefficients(h, zeta, g, noise)
    rng = np.random.default_rng(seed)
    payload = tau_payload if tau_payload is not None else rng.integers(0, 2, size=k)
    bits = build_bit_sequence(cfg, payload=np.asarray(payload))
    w = synthesize_received(bits, cfg, ch, rng)
    return w, cfg, ch, np.asarray(payload)


def test_compensate_zero_is_identity():
    w, _, _, _ = make_frame()
    out = compensate(w, 0)
    assert out.pilot_start == w.pilot_start and out.data_start == w.data_start


def test_compensate_undoes_matching_offset():
    w, cfg, _, _ = make_frame()
    for tau in (-6, 6):
        restored = compensate(apply_sto(w, tau), tau)
        assert restored.pilot_start == w.pilot_start
        assert restored.data_start == w.data_start
        assert restored.samples is w.samples


def test_compensate_partial_leaves_residual():
    w, _, _, _ = make_frame()
    partial = compensate(apply_sto(w, 6), 4)
    residual = apply_sto(w, 2)
    assert partial.pilot_start == residual.pilot_start
    assert partial.data_start == residual.data_start


def test_compensate_out_of_range():
    w, cfg, _, _ = make_frame(k=2, n=6)
    with pytest.raises(ValueError):
        compensate(w, -8)  # needs 8 guard samples, frame has 6


# ------------------------------------------------------------------ detect_frame


def test_detect_frame_empty_payload():
    w, cfg, ch, _ = make_frame(k=0)
    params = DetectorParams.from_powers(cfg.data_symbol_samples, ch.p0, ch.p1)
    bits, energies = detect_frame(w, params, 0)
    assert bits.shape == energies.shape == (0,)


def test_detect_frame_noiseless_all_correct():
    # strong power contrast and nearly no noise: every decision is right
    w, cfg, ch, payload = make_frame(k=40, n=50, seed=5, snr_db=60.0)
    params = DetectorParams.from_powers(cfg.data_symbol_samples, ch.p0, ch.p1)
    bits, energies = detect_frame(w, params, 0)
    assert bits.shape == energies.shape == (40,)
    assert bits.dtype == np.int64
    assert np.array_equal(bits, payload)
    assert (energies >= 0).all()


def test_half_symbol_offset_without_compensation_is_coin_flip():
    # alternating payload, offset of N/2, no compensation: each window mixes
    # the two hypotheses equally, so decisions are independent of the bit
    total_bits = 0
    errors = 0
    for seed in range(20):
        k = 500
        w, cfg, ch, payload = make_frame(
            k=k, n=10, tau_payload=np.tile([0, 1], 250), seed=seed, snr_db=10.0
        )
        params = DetectorParams.from_powers(cfg.data_symbol_samples, ch.p0, ch.p1)
        shifted = apply_sto(w, 5)
        bits, _ = detect_frame(shifted, params, 0)
        errors += int((bits != payload).sum())
        total_bits += k
    assert total_bits == 10_000
    assert errors / total_bits == pytest.approx(0.5, abs=0.02)


def test_perfect_compensation_equals_ideal_detection():
    w, cfg, ch, payload = make_frame(k=30, n=25, seed=11, snr_db=8.0)
    params = DetectorParams.from_powers(cfg.data_symbol_samples, ch.p0, ch.p1)
    ideal_bits, ideal_energies = detect_frame(w, params, 0)
    for tau in (-9, 9):
        bits, energies = detect_frame(apply_sto(w, tau), params, tau)
        assert np.array_equal(energies, ideal_energies)
        assert np.array_equal(bits, ideal_bits)
