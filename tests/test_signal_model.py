"""Channel, source, and noise generation."""

import math

import numpy as np
import pytest
from scipy import stats

from ambcsync import (
    ChannelModel,
    ChannelState,
    draw_channel,
    trial_rng,
)
from ambcsync.signal_model import gen_cgn_block


def test_noise_powers_from_snr_db():
    # at unit source power the source-referenced noise power is 10^(-SNR/10),
    # whatever the channel model
    for model in (ChannelModel(), ChannelModel("static", rho=0.5)):
        assert model.noise_for_snr(0.0) == 1.0
        assert model.noise_for_snr(10.0) == pytest.approx(0.1)


def test_noise_powers_validation():
    # the received law refuses a noise power that is negative or not finite
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ChannelState.from_coefficients(1, 1, 1, bad)
        with pytest.raises(ValueError, match="finite"):
            draw_channel(np.random.default_rng(0), bad)
    # a zero noise floor is allowed for noise-free constructions
    assert ChannelState.from_coefficients(1, 1, 1, 0.0) == ChannelState(1.0, 4.0)


def test_draw_channel_deterministic():
    noise = 1.0
    a = [draw_channel(trial_rng(42, 0, t), noise) for t in range(5)]
    b = [draw_channel(trial_rng(42, 0, t), noise) for t in range(5)]
    assert a == b
    # one shared generator also replays identically from the same seed
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    assert draw_channel(rng1, noise) == draw_channel(rng2, noise)


def replay_coefficients(rng):
    """The (h, zeta, g) that ``draw_channel`` builds from the same six normals."""
    z = rng.standard_normal(6) * np.sqrt(0.5)
    return complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5])


def test_draw_channel_moments():
    # law-of-large-numbers oracle over 1e5 draws at zero noise: E p0 = E|h|^2 = 1
    # and E p1 = E|h + zeta g|^2 = 2
    noise = 0.0
    rng = np.random.default_rng(2024)
    states = [draw_channel(rng, noise) for _ in range(100_000)]
    assert np.mean([c.p0 for c in states]) == pytest.approx(1.0, abs=0.02)
    assert np.mean([c.p1 for c in states]) == pytest.approx(2.0, abs=0.05)


def test_channel_state_derived_fields():
    noise = 0.5
    rng, replay = np.random.default_rng(1), np.random.default_rng(1)
    for _ in range(100):
        ch = draw_channel(rng, noise)
        h, zeta, g = replay_coefficients(replay)
        assert ch.p0 == pytest.approx(abs(h) ** 2 + 0.5)
        assert ch.p1 == pytest.approx(abs(h + zeta * g) ** 2 + 0.5)
        assert ch.p0 >= 0.5 and ch.p1 >= 0.5


def test_draw_channel_batch_matches_single_draws():
    # n blocks at once read the same 6n normals as n single draws, in order
    noise = 0.5
    batch = draw_channel(np.random.default_rng(3), noise, 50)
    replay = np.random.default_rng(3)
    singles = [draw_channel(replay, noise) for _ in range(50)]
    assert batch.p0.shape == batch.p1.shape == (50,)
    assert batch.p0 == pytest.approx([ch.p0 for ch in singles], rel=1e-12)
    assert batch.p1 == pytest.approx([ch.p1 for ch in singles], rel=1e-12)


def test_gen_cgn_block_empty_and_degenerate():
    rng = np.random.default_rng(0)
    assert gen_cgn_block(0, rng).shape == (0,)
    assert gen_cgn_block(0, rng).dtype == np.complex128
    with pytest.raises(ValueError):
        gen_cgn_block(-1, rng)


def test_gen_cgn_block_sample_power():
    # sample-mean oracle at 1e6 samples; tolerance is ~5 standard errors
    rng = np.random.default_rng(11)
    z = gen_cgn_block(1_000_000, rng)
    power = np.mean(z.real**2 + z.imag**2)
    assert power == pytest.approx(1.0, abs=0.005)


def test_gen_cgn_block_component_structure():
    rng = np.random.default_rng(12)
    z = gen_cgn_block(500_000, rng)
    assert np.var(z.real) == pytest.approx(0.5, rel=0.02)
    assert np.var(z.imag) == pytest.approx(0.5, rel=0.02)
    corr = np.corrcoef(z.real, z.imag)[0, 1]
    assert abs(corr) < 0.01


def test_gen_cgn_block_magnitude_chisquare_gof():
    # |x|^2 must be unit-mean exponential; 50 equiprobable bins,
    # chi-square test at significance 0.01
    rng = np.random.default_rng(314)
    z = gen_cgn_block(100_000, rng)
    u = z.real**2 + z.imag**2
    nbins = 50
    edges = stats.expon.ppf(np.linspace(0.0, 1.0, nbins + 1))
    counts, _ = np.histogram(u, bins=edges)
    expected = len(u) / nbins
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < stats.chi2.ppf(0.99, df=nbins - 1)


def test_gen_cgn_block_stream_determinism():
    a = gen_cgn_block(4096, np.random.default_rng(99))
    b = gen_cgn_block(4096, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_symbol_variances_hand_cases():
    noise = 1.0
    zero = ChannelState.from_coefficients(0, 0, 0, noise)
    assert (zero.p0, zero.p1) == (1.0, 1.0)
    plus = ChannelState.from_coefficients(1, 1, 1, noise)
    assert (plus.p0, plus.p1) == (2.0, 5.0)
    cancel = ChannelState.from_coefficients(1, 1, -1, noise)
    assert (cancel.p0, cancel.p1) == (2.0, 1.0)


def test_power_gap_sign_matches_channel_gap():
    noise = 0.3
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        ch = draw_channel(rng, noise)
        h, zeta, g = replay_coefficients(replay)
        contrast = abs(h + zeta * g) ** 2 - abs(h) ** 2
        assert ch.p1 - ch.p0 == pytest.approx(contrast, rel=1e-12, abs=1e-15)
        assert np.sign(ch.p1 - ch.p0) == np.sign(contrast)


def test_trial_rng_substreams():
    # same key replays; distinct keys decorrelate
    assert np.array_equal(
        trial_rng(1, 2, 3).standard_normal(8), trial_rng(1, 2, 3).standard_normal(8)
    )
    a = trial_rng(1, 0, 0).standard_normal(8)
    b = trial_rng(1, 0, 1).standard_normal(8)
    c = trial_rng(2, 0, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_static_channel_powers_per_snr_reference():
    # h = 1 and zeta*g = j sqrt(0.5): |h|^2 = 1, |mu|^2 = 1.5, unit source power
    model = ChannelModel("static", rho=0.5)
    source = model.noise_for_snr(10.0, "source")
    assert source == pytest.approx(0.1, rel=1e-12)
    ch = model.static_state(source)
    assert ch == ChannelState.from_coefficients(1, np.sqrt(0.5), 1j, source)
    assert ch.p0 == pytest.approx(1.1, rel=1e-12)
    assert ch.p1 == pytest.approx(1.6, rel=1e-12)
    # mean received power over the two equiprobable states: (1 + 1.5) / 2 = 1.25
    mean = model.noise_for_snr(10.0, "mean_received")
    assert mean == pytest.approx(0.125, rel=1e-12)
    ch = model.static_state(mean)
    assert ch.p0 == pytest.approx(1.125, rel=1e-12)
    assert ch.p1 == pytest.approx(1.625, rel=1e-12)
    assert model.noise_for_snr(5.0, "mean_received") == pytest.approx(
        1.25 * 10 ** -0.5, rel=1e-12
    )


def test_rayleigh_noise_per_snr_reference():
    model = ChannelModel()
    assert model == ChannelModel("rayleigh", rho=1.0)
    # the source reference is the historical mapping, bit for bit
    assert model.noise_for_snr(0.0) == 1.0
    for snr in (-5.0, 0.0, 7.5, 10.0, 15.0):
        assert model.noise_for_snr(snr) == 10.0 ** (-snr / 10.0)
    # E|h|^2 = 1 and E|mu|^2 = 2, so the mean received power is 1.5
    assert model.noise_for_snr(10.0, "mean_received") == pytest.approx(
        0.15, rel=1e-12
    )


def test_channel_model_validation():
    with pytest.raises(ValueError, match="channel kind"):
        ChannelModel("rician")
    with pytest.raises(ValueError, match="rho"):
        ChannelModel("static", rho=-0.5)
    with pytest.raises(ValueError, match="rho"):
        ChannelModel("static", rho=float("nan"))
    with pytest.raises(ValueError, match="unit-variance"):
        ChannelModel("rayleigh", rho=0.5)
    with pytest.raises(ValueError, match="no fixed state"):
        ChannelModel().static_state(1.0)
    with pytest.raises(ValueError, match="SNR reference"):
        ChannelModel().noise_for_snr(10.0, "backscatter")
    # 10^400 overflows a float: the error names the SNR, it is no OverflowError
    for reference in ("source", "mean_received"):
        with pytest.raises(ValueError, match="SNR -4000 dB"):
            ChannelModel("static", rho=0.5).noise_for_snr(-4000, reference)
    # rho = 0 is a valid channel on its own; experiments reject it
    zero = ChannelModel("static", rho=0.0).static_state(1.0)
    assert zero.p0 == zero.p1 == 2.0
