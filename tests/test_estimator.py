"""Pilot-matrix assembly and maximum-likelihood transition estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambcsync import (
    ChannelState,
    DegenerateSegmentError,
    FrameConfig,
    apply_sto,
    build_bit_sequence,
    collect_windows,
    draw_channel,
    estimate_sto,
    synthesize_received,
    trial_rng,
)
from ambcsync.estimator import _take, scan_sto
from ambcsync.signal_model import gen_cgn_block
from oracles import (
    exact_two_segment,
    log_likelihood_reduced,
    variance_estimates,
)


def pilot_waveform(pairs=4, np_samples=12, seed=3, snr_db=None, h=1.0, zeta=1.0, g=1.0):
    cfg = FrameConfig(pairs, np_samples, 0, np_samples)
    noise = 0.0 if snr_db is None else 10 ** (-snr_db / 10)
    ch = ChannelState.from_coefficients(h, zeta, g, noise)
    w = synthesize_received(build_bit_sequence(cfg), cfg, ch, np.random.default_rng(seed))
    return w, cfg, ch


# ---------------------------------------------------------------- collect_windows


def test_collect_windows_shape_and_content():
    w, cfg, ch = pilot_waveform(pairs=3, np_samples=10, seed=9)
    y = collect_windows(w)
    assert y.shape == (3, 10)
    # aligned clock, zero noise: every window is the reflecting bit exactly
    s = gen_cgn_block(cfg.total_samples, np.random.default_rng(9))
    for row in range(3):
        start = cfg.pilot_start + (2 * row + 1) * 10
        assert np.array_equal(y[row], np.sqrt(ch.p1) * s[start : start + 10])


def test_collect_windows_single_pair():
    w, _, _ = pilot_waveform(pairs=1, np_samples=8)
    assert collect_windows(w).shape == (1, 8)


def test_collect_windows_offset_rows_have_foreign_head():
    w, cfg, ch = pilot_waveform(pairs=4, np_samples=12, seed=10)
    s = gen_cgn_block(cfg.total_samples, np.random.default_rng(10))
    y = collect_windows(apply_sto(w, -4))
    for row in range(4):
        true_start = cfg.pilot_start + (2 * row + 1) * 12 - 4
        seg = s[true_start : true_start + 12]
        assert np.array_equal(y[row, :4], np.sqrt(ch.p0) * seg[:4])
        assert np.array_equal(y[row, 4:], np.sqrt(ch.p1) * seg[4:])


def test_collect_windows_out_of_range():
    w, _, _ = pilot_waveform(pairs=2, np_samples=8)
    from dataclasses import replace

    truncated = replace(w, samples=w.samples[: w.pilot_start + 20])
    with pytest.raises(ValueError):
        collect_windows(truncated)


# ------------------------------------------- scalar oracles (tests/oracles.py)


def test_variance_estimates_hand_cases():
    ones = np.ones((3, 6), dtype=complex)
    for n0 in range(1, 6):
        assert variance_estimates(ones, n0) == (1.0, 1.0)
    y = np.sqrt(np.array([[9.0, 9.0, 1.0, 1.0]])).astype(complex)
    assert variance_estimates(y, 2) == (9.0, 1.0)
    two = np.sqrt(np.array([[4.0, 4.0, 0.0, 0.0], [0.0, 0.0, 4.0, 4.0]])).astype(complex)
    assert variance_estimates(two, 2) == (2.0, 2.0)


def test_variance_estimates_bounds():
    y = np.ones((2, 5), dtype=complex)
    with pytest.raises(ValueError):
        variance_estimates(y, 0)
    with pytest.raises(ValueError):
        variance_estimates(y, 5)


def test_variance_estimates_rejects_nonfinite():
    y = np.ones((2, 5), dtype=complex)
    y[1, 2] = np.nan
    with pytest.raises(ValueError):
        variance_estimates(y, 2)


def test_loglik_flat_for_unit_magnitude():
    y = np.exp(1j * np.linspace(0, 5, 24)).reshape(4, 6)
    for n0 in range(1, 6):
        assert log_likelihood_reduced(y, n0) == 0.0


def test_loglik_hand_scan():
    # single row, |y|^2 = (9, 9, 1, 1); hand-computed profile values
    y = np.sqrt(np.array([[9.0, 9.0, 1.0, 1.0]])).astype(complex)
    assert log_likelihood_reduced(y, 2) == pytest.approx(-2 * math.log(9.0), abs=1e-12)
    assert log_likelihood_reduced(y, 1) == pytest.approx(
        -math.log(9.0) - 3 * math.log(11.0 / 3.0), abs=1e-12
    )
    assert log_likelihood_reduced(y, 3) == pytest.approx(
        -3 * math.log(19.0 / 3.0), abs=1e-12
    )
    # the true split wins the scan
    assert log_likelihood_reduced(y, 2) > log_likelihood_reduced(y, 1)
    assert log_likelihood_reduced(y, 2) > log_likelihood_reduced(y, 3)


def test_loglik_scaling_shifts_by_constant():
    rng = np.random.default_rng(8)
    y = (rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))) / np.sqrt(2)
    c = 3.0
    shift = -9 * 5 * math.log(c**2)
    for n0 in range(2, 9):
        assert log_likelihood_reduced(c * y, n0) == pytest.approx(
            log_likelihood_reduced(y, n0) + shift, rel=1e-12
        )


def test_loglik_degenerate_segment_raises():
    y = np.ones((2, 6), dtype=complex)
    y[:, :3] = 0.0
    with pytest.raises(DegenerateSegmentError):
        log_likelihood_reduced(y, 3)
    with pytest.raises(DegenerateSegmentError):
        estimate_sto(y)
    # one zero-power segment anywhere in a batch of column sums
    sums = np.ones((3, 6))
    sums[1, 4:] = 0.0
    with pytest.raises(DegenerateSegmentError, match="n0=4"):
        scan_sto(sums)


# -------------------------------------------------------------------- estimate_sto


def test_estimate_rejects_bad_matrices():
    with pytest.raises(ValueError, match="2-D"):
        estimate_sto(np.ones(8, dtype=complex))
    with pytest.raises(ValueError, match="at least 1 x 4"):
        estimate_sto(np.ones((5, 3), dtype=complex))
    with pytest.raises(ValueError, match="at least 1 x 4"):
        estimate_sto(np.ones((0, 8), dtype=complex))
    y = np.ones((2, 5), dtype=complex)
    y[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        estimate_sto(y)


def test_estimate_profile_matches_oracles():
    # the scan's prefix-sum profile equals the scalar oracles, computed from
    # the matrix one candidate at a time, on Gaussian and segment-exact matrices
    rng = np.random.default_rng(62)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 41)), int(rng.integers(4, 65))
        split = int(rng.integers(2, cols))
        v1 = float(rng.uniform(0.5, 2.0))
        v2 = v1 * float(rng.uniform(1.5, 20.0)) ** (1 if rng.random() < 0.5 else -1)
        gaussian = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for y in (gaussian, exact_two_segment(rng, rows, cols, split, v1, v2)):
            est = estimate_sto(y)
            assert est.s1.shape == est.s2.shape == est.loglik.shape == (cols - 2,)
            for n0 in range(2, cols):
                s1, s2 = variance_estimates(y, n0)
                assert est.s1[n0 - 2] == pytest.approx(s1, rel=1e-12)
                assert est.s2[n0 - 2] == pytest.approx(s2, rel=1e-12)
                # the log-likelihood weighs log(s) by up to rows * cols, and its
                # two terms can cancel to near zero: an ulp of s shows there
                loglik = log_likelihood_reduced(y, n0)
                tol = dict(rel=1e-12, abs=1e-14 * rows * cols)
                assert est.loglik[n0 - 2] == pytest.approx(loglik, **tol)
            assert est.n0_hat == 2 + int(np.argmax(est.loglik))


def test_estimate_noiseless_splits():
    rng = np.random.default_rng(77)
    y = exact_two_segment(rng, rows=6, cols=30, split=5, v1=5.0, v2=1.0)
    est = estimate_sto(y)
    assert (est.n0_hat, est.tau_hat) == (5, -5)
    y = exact_two_segment(rng, rows=6, cols=30, split=25, v1=5.0, v2=1.0)
    est = estimate_sto(y)
    assert (est.n0_hat, est.tau_hat) == (25, 5)


def test_estimate_flat_matrix_tie_break():
    est = estimate_sto(np.ones((3, 8), dtype=complex))
    assert (est.n0_hat, est.tau_hat) == (2, -2)
    # every candidate ties on flat column sums: each scan takes n0 = 2
    assert np.array_equal(scan_sto(np.full((4, 8), 3.0)), np.full(4, -2))


def power_sums(y):
    return (y.real**2 + y.imag**2).sum(axis=-2)


def test_scan_core_matches_estimate_sto():
    # the batched scan of column sums gives each matrix's estimate_sto, on
    # Gaussian matrices and on segment-exact ones (criterion 5's pattern)
    rng = np.random.default_rng(61)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 41)), int(rng.integers(4, 65))
        split = int(rng.integers(2, cols))
        v1 = float(rng.uniform(0.5, 2.0))
        ratio = float(rng.uniform(1.5, 20.0))
        v2 = v1 * ratio if rng.random() < 0.5 else v1 / ratio
        batch = np.stack(
            [rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
             for _ in range(3)]
            + [exact_two_segment(rng, rows, cols, split, v1, v2) for _ in range(3)]
        )
        expected = [estimate_sto(y).tau_hat for y in batch]
        assert scan_sto(power_sums(batch)).tolist() == expected
        assert scan_sto(power_sums(batch).reshape(2, 3, cols)).tolist() == [
            expected[:3], expected[3:]
        ]
        assert int(scan_sto(power_sums(batch[-1]))) == expected[-1]


def test_scan_of_a_mixed_length_batch_matches_scans_per_length():
    # a batch of frames from several cells, in runs of one pilot length each,
    # scans at once and gives exactly what a scan of each run gives: 10,000
    # frames of gamma column sums with a random change point and power ratio
    rng = np.random.default_rng(64)
    cols, frames = 30, 10_000
    sizes = rng.multinomial(frames - 40, np.full(40, 1 / 40)) + 1
    counts = rng.integers(1, 41, size=sizes.size)
    rows = np.repeat(counts, sizes)
    split = rng.integers(2, cols, size=(frames, 1))
    ratio = rng.uniform(0.5, 2.0, size=(frames, 1))
    sums = rng.standard_gamma(rows[:, None], size=(frames, cols))
    sums *= np.where(np.arange(cols) < split, 1.0, ratio)
    whole = scan_sto(sums)
    ends = np.cumsum(sizes)
    runs = [scan_sto(sums[end - size : end]) for size, end in zip(sizes, ends)]
    assert np.array_equal(whole, np.concatenate(runs))
    # the ties of a flat batch still go to the smallest candidate, whatever
    # the common column sum
    flat = np.array([1.0, 3.0, 3.0, 7.0, 0.1, 1e6])[:, None] * np.ones(8)
    assert np.array_equal(scan_sto(flat), np.full(6, -2))


def test_one_key_taken_with_two_dtypes_gets_a_buffer_of_each():
    # a key's buffer serves one dtype: a later, smaller take of the key in
    # another dtype gets its own buffer, and the first one is kept
    flags = _take("two dtypes", (4,), bool)
    values = _take("two dtypes", (2,), float)
    assert flags.dtype == bool and values.dtype == float
    assert not np.shares_memory(flags, values)
    assert np.shares_memory(_take("two dtypes", (4,), bool), flags)


def test_an_estimate_keeps_its_arrays_after_later_scans():
    # estimate_sto and scan_sto work in the thread's buffers; the estimate
    # of matrix A holds copies, which a later estimate of matrix B and a
    # batch scan leave as they were
    rng = np.random.default_rng(66)
    a, b = (rng.standard_normal((8, 20)) + 1j * rng.standard_normal((8, 20)) for _ in range(2))
    est = estimate_sto(a)
    kept = [est.s1.copy(), est.s2.copy(), est.loglik.copy()]
    estimate_sto(b)
    scan_sto(rng.standard_gamma(8.0, size=(256, 20)))
    for array, copy in zip([est.s1, est.s2, est.loglik], kept):
        assert np.array_equal(array, copy)


def test_estimate_ignores_the_row_count():
    # L scales the profile and shifts it by a constant: a matrix stacked k
    # times has the same estimate and segment variances, and k times the
    # log-likelihood
    rng = np.random.default_rng(65)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(4, 33))
        y = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        est = estimate_sto(y)
        for k in range(2, 6):
            stacked = estimate_sto(np.tile(y, (k, 1)))
            assert (stacked.n0_hat, stacked.tau_hat) == (est.n0_hat, est.tau_hat)
            assert stacked.s1 == pytest.approx(est.s1, rel=1e-12)
            assert stacked.s2 == pytest.approx(est.s2, rel=1e-12)
            tol = dict(rel=1e-12, abs=1e-14 * k * rows * cols)
            assert stacked.loglik == pytest.approx(k * est.loglik, **tol)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), rows=st.integers(1, 8), cols=st.integers(4, 32))
def test_scale_invariance(seed, rows, cols):
    rng = np.random.default_rng(seed)
    y = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    base = estimate_sto(y).n0_hat
    for c in (1e-3, 1e3, -2.0):
        assert estimate_sto(c * y).n0_hat == base


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), rows=st.integers(2, 8), cols=st.integers(5, 24))
def test_permutation_invariance(seed, rows, cols):
    rng = np.random.default_rng(seed)
    y = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    n0 = int(rng.integers(2, cols))
    s1, s2 = variance_estimates(y, n0)
    # shuffling samples inside each segment of each row changes nothing
    shuffled = y.copy()
    for r in range(rows):
        shuffled[r, :n0] = rng.permutation(shuffled[r, :n0])
        shuffled[r, n0:] = rng.permutation(shuffled[r, n0:])
    p1, p2 = variance_estimates(shuffled, n0)
    assert p1 == pytest.approx(s1, rel=1e-12) and p2 == pytest.approx(s2, rel=1e-12)
    # row order is irrelevant to the whole scan
    perm = rng.permutation(rows)
    assert estimate_sto(y[perm]).n0_hat == estimate_sto(y).n0_hat


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9), rows=st.integers(1, 6), cols=st.integers(4, 33))
def test_offset_output_domain(seed, rows, cols):
    rng = np.random.default_rng(seed)
    y = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    tau_hat = estimate_sto(y).tau_hat
    neg_min = -(math.ceil(cols / 2) - 1)
    pos_max = cols // 2
    assert (neg_min <= tau_hat <= -2) or (1 <= tau_hat <= pos_max)


@pytest.mark.parametrize("cols", [4, 5, 16, 30])
def test_scan_returns_exactly_its_admissible_offsets(cols):
    # the scan's estimates are -(ceil(N_p/2) - 1)..-2 and 1..floor(N_p/2):
    # -14..-2 and 1..15 at N_p = 30. A step in the column sums after any
    # candidate column reaches each of them, and no sums give 0 or -1,
    # although the config admits both offsets
    admissible = set(range(-(math.ceil(cols / 2) - 1), -1)) | set(range(1, cols // 2 + 1))
    steps = [np.r_[np.full(n0, low), np.full(cols - n0, 1.0)]
             for n0 in range(2, cols) for low in (0.05, 20.0)]
    assert set(scan_sto(np.array(steps)).tolist()) == admissible
    # column sums of one and of 30 pilot rows of equal power
    rows = np.repeat([[1.0], [30.0]], 3000, axis=0)
    sums = np.random.default_rng(cols).standard_gamma(rows, size=(6000, cols))
    assert set(scan_sto(sums).tolist()) <= admissible


def test_recovery_rate_nondecreasing_in_pilot_length():
    # physical pilot trials at 10 dB: hit rate grows with L (2-SE slack)
    snr_db = 10.0
    trials = 10_000
    rates = []
    for li, pairs in enumerate((10, 20, 40)):
        cfg = FrameConfig(pairs, 30, 0, 30)
        noise = 10 ** (-snr_db / 10)
        bits = build_bit_sequence(cfg)
        hits = 0
        for t in range(trials):
            rng = trial_rng(424, li, t)
            ch = draw_channel(rng, noise)
            w = synthesize_received(bits, cfg, ch, rng)
            est = estimate_sto(collect_windows(apply_sto(w, -7)))
            hits += est.n0_hat == 7
        rates.append(hits / trials)
    se = math.sqrt(0.25 / trials)
    assert rates[1] >= rates[0] - 2 * se
    assert rates[2] >= rates[1] - 2 * se
