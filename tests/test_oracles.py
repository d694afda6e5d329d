"""Exact BER of the energy detector on the static channel, against the runner.

On a static channel every received sample of bit b is CN(0, p_b), so the
energy of m samples inside one bit is p_b * Gamma(m, 1), and stretches in
different bits are independent.  The ideal window of a bit is one such
stretch of N samples.  A window offset by a pinned tau > 0 reads the last
N - tau samples of its bit and the first tau of the next: a sum of two
independent gammas, whose CDF is one integral.  The runner's BER columns
must match these closed forms within a z-bound.
"""

import math

import pytest
from scipy import integrate, stats

from ambcsync import ChannelModel, ExperimentConfig, ed_threshold, run_experiment

# largest |z| of a BER column against its exact value, fixed before the first run
ORACLE_Z_MAX = 4.0

STATIC = ChannelModel("static", rho=0.5)
SNRS = (5.0, 10.0, 15.0, 20.0)


def powers(snr_db):
    ch = STATIC.static_state(STATIC.noise_for_snr(snr_db, "mean_received"))
    return ch.p0, ch.p1


def ideal_ber(n, p0, p1):
    """1/2 [P(p0 G_N >= T) + P(p1 G_N < T)], for p1 > p0."""
    t = ed_threshold(n, p0, p1)
    return 0.5 * (stats.gamma.sf(t / p0, n) + stats.gamma.cdf(t / p1, n))


def two_gamma_cdf(t, a, m1, b, m2):
    """P(a G_m1 + b G_m2 < t) for independent unit-scale gammas."""
    density = lambda x: stats.gamma.pdf(x, m1) * stats.gamma.cdf((t - a * x) / b, m2)
    value, _ = integrate.quad(density, 0.0, t / a, epsabs=1e-12, epsrel=1e-10)
    return value


def no_comp_ber(n, tau, k, p0, p1):
    """BER of K bits read through windows offset by tau > 0, for p1 > p0.

    Bit j's window sums p_{b_j} G_{N - tau} and p_{b_{j+1}} G_tau.  The
    neighbour of bits 0..K-2 is a fair payload bit; that of bit K-1 is the
    guard "0".
    """
    t = ed_threshold(n, p0, p1)
    power = (p0, p1)

    def error(bit, neighbour):
        below = two_gamma_cdf(t, power[bit], n - tau, power[neighbour], tau)
        return below if bit else 1.0 - below

    inner = sum(error(b, c) for b in (0, 1) for c in (0, 1)) / 4
    last = (error(0, 0) + error(1, 0)) / 2
    return ((k - 1) * inner + last) / k


def test_ideal_oracle_values():
    # at rho = 0.5, mean_received SNR and N = 50
    got = [round(ideal_ber(50, *powers(snr)), 5) for snr in SNRS]
    assert got == [0.14083, 0.09776, 0.08333, 0.07874]


def test_two_gamma_cdf_is_one_gamma_at_equal_powers():
    for t, a, m1, m2 in ((40.0, 1.0, 40, 10), (75.0, 1.5, 45, 5), (8.0, 0.3, 20, 20)):
        assert two_gamma_cdf(t, a, m1, a, m2) == pytest.approx(
            stats.gamma.cdf(t / a, m1 + m2), abs=1e-9)


def test_runner_matches_the_static_oracles():
    # one payload bit's ideal window is disjoint from every other, so the
    # ideal column's bit errors are independent; an offset window shares its
    # neighbour's samples with the next window only, so the no-comp count's
    # variance is below 3 K p (1 - p) per frame
    n, tau, k, trials = 50, 10, 50, 20_000
    config = ExperimentConfig(
        kind="ber_compare", snr_grid_db=SNRS, trials=trials, pilot_pairs=(30,),
        pilot_bit_samples=30, symbol_samples=(n,), data_symbols=k, tau_choices=(tau,),
        seed=111, threads=1, channel=STATIC, snr_reference="mean_received",
    )
    for snr, _, no_comp, _, ideal, bits in run_experiment(config).rows:
        p0, p1 = powers(snr)
        for name, value, exact, inflation in (
            ("ideal", ideal, ideal_ber(n, p0, p1), 1.0),
            ("no_comp", no_comp, no_comp_ber(n, tau, k, p0, p1), 3.0),
        ):
            se = math.sqrt(inflation * exact * (1.0 - exact) / bits)
            z = (value - exact) / se
            assert abs(z) <= ORACLE_Z_MAX, (snr, name, value, exact, z)
