"""End-to-end acceptance suite.

Each test prints one ``[acceptance] criterion N: PASS/FAIL`` line (run with
``pytest -s`` to see them live).  The Monte Carlo criteria use the full
stated trial budgets; the module runs in about 6 s on two shared cores of
an Intel Xeon (Python 3.11.7, numpy 2.4.6).
"""

import math
from dataclasses import replace

import numpy as np

from ambcsync import (
    ChannelModel,
    ExperimentConfig,
    ed_threshold,
    estimate_sto,
    harness,
    run_experiment,
)
from oracles import exact_two_segment, full_log_likelihood, mp_threshold


def report(num, name, ok, detail=""):
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ------------------------------------------------------------------ criterion 1


def test_criterion_1_mae_point_reproduction():
    targets = {
        (5.0, 20): 2.8695, (5.0, 30): 1.9187, (5.0, 40): 1.2333,
        (15.0, 20): 1.4230, (15.0, 30): 0.7285, (15.0, 40): 0.4441,
    }
    bound = 0.15
    # The published curves are noise limited, not fading limited: they lie
    # under the Rayleigh block-fading floor and halve from 5 to 15 dB.  The
    # points are therefore run on a static channel whose backscatter path
    # carries half the direct-path power, with the SNR referred to the mean
    # received power of the two bit states.  Both values are a recorded model
    # choice (see the README), not read from the paper's text.
    config = ExperimentConfig(
        kind="mae_vs_snr", snr_grid_db=(5.0, 15.0), trials=100_000,
        pilot_pairs=(20, 30, 40), pilot_bit_samples=30,
        tau_choices=(-10, 10), seed=101,
        channel=ChannelModel("static", rho=0.5), snr_reference="mean_received",
    )
    rows = run_experiment(config).rows
    lines, misses = [], []
    for snr, pairs, mae, _ in rows:
        ref = targets[(snr, pairs)]
        ok = abs(mae - ref) <= bound * ref
        lines.append(
            f"SNR {snr:g} L={pairs}: mae={mae:.4f} target={ref}±{bound:.0%} -> "
            f"{'ok' if ok else 'MISS'}"
        )
        if not ok:
            misses.append((snr, pairs, mae, ref))
    detail = "; ".join(lines)
    if misses:
        # The estimator decides from sample magnitudes only, so its output is
        # invariant to any common rescaling of source and noise powers; a
        # power remapping therefore reduces to a shift along the SNR axis,
        # and the relevant limit of every remapping is the noise-free floor.
        floor_cfg = replace(config, snr_grid_db=(60.0,), trials=20_000)
        floors = {pairs: mae for _, pairs, mae, _ in run_experiment(floor_cfg).rows}
        unreachable = [
            (snr, pairs, ref)
            for snr, pairs, _, ref in misses
            if floors[pairs] > (1 + bound) * ref
        ]
        detail += (
            f" | noise-free floors: "
            + ", ".join(f"L={p}: {m:.3f}" for p, m in sorted(floors.items()))
            + f" | {len(unreachable)} missed targets lie below the floor, so no"
            f" source/noise power mapping can land within ±{bound:.0%}"
        )
    report(1, "mae point reproduction", not misses, detail)


# ------------------------------------------------------------------ criterion 2


def test_criterion_2_error_distribution_shape():
    config = ExperimentConfig(
        kind="error_hist", snr_grid_db=(15.0,), trials=100_000, pilot_pairs=(30,),
        pilot_bit_samples=30,
        tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11)), seed=102,
    )
    pmf = run_experiment(config).probabilities
    n = config.trials
    mode_at_zero = pmf[0] == max(pmf.values())
    p_small = sum(p for e, p in pmf.items() if abs(e) <= 2)
    concentrated = p_small > 1.0 - p_small
    sym_ok, sym_lines = True, []
    for d in (1, 2, 3):
        p_plus, p_minus = pmf.get(d, 0.0), pmf.get(-d, 0.0)
        se = math.sqrt((p_plus + p_minus) / n)
        ok = abs(p_plus - p_minus) <= 3 * se
        sym_ok &= ok
        sym_lines.append(f"|P(+{d})-P(-{d})|={abs(p_plus - p_minus):.5f} (3se={3*se:.5f})")
    detail = (
        f"P(0)={pmf[0]:.4f} mode_at_zero={mode_at_zero}, "
        f"P(|e|<=2)={p_small:.4f}, {'; '.join(sym_lines)}"
    )
    report(2, "error distribution shape", mode_at_zero and concentrated and sym_ok, detail)


# ------------------------------------------------------------------ criterion 3


def test_criterion_3_mae_trends():
    trials = 20_000
    pairs = (20, 30, 40)
    np_samples = 30
    config = ExperimentConfig(
        kind="mae_vs_snr", snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0), trials=trials,
        pilot_pairs=pairs, pilot_bit_samples=np_samples, tau_choices=(-10, 10),
        seed=103,
    )
    mae = {(snr, l): m for snr, l, m, _ in run_experiment(config).rows}

    def slack(value):
        # conservative: Var|e| <= E|e| * max|e| with max|e| <= N_p
        return 2 * math.sqrt(value * np_samples / trials)

    problems = []
    for snr in config.snr_grid_db:
        for a, b in zip(pairs, pairs[1:]):
            if mae[(snr, b)] > mae[(snr, a)] + slack(mae[(snr, a)]):
                problems.append(f"L-trend broken at snr={snr}: L{a}->{b}")
    for l in pairs:
        seq = [mae[(snr, l)] for snr in config.snr_grid_db]
        for i, (a, b) in enumerate(zip(seq, seq[1:])):
            if b > a + slack(a):
                problems.append(f"snr-trend broken at L={l} step {i}")

    floor_cfg = replace(config, snr_grid_db=(25.0, 35.0), seed=104)
    fmae = {(snr, l): m for snr, l, m, _ in run_experiment(floor_cfg).rows}
    floor_lines = []
    for l in pairs:
        rel = abs(fmae[(25.0, l)] - fmae[(35.0, l)]) / fmae[(35.0, l)]
        floor_lines.append(f"L={l}: floor drift {rel:.3%}")
        if rel >= 0.10:
            problems.append(f"floor drift at L={l}: {rel:.3%}")
    detail = "; ".join(floor_lines) + ("; " + "; ".join(problems) if problems else "")
    report(3, "mae trend suite", not problems, detail)


# ------------------------------------------------------------------ criterion 4


def test_criterion_4_ber_ordering():
    trials = 20_000  # x 50 data bits = 1e6 bits per grid point
    problems, lines = [], []
    for n_samples in (50, 100):
        config = ExperimentConfig(
            kind="ber_compare", snr_grid_db=(5.0, 10.0, 15.0, 20.0), trials=trials,
            pilot_pairs=(30,), pilot_bit_samples=30, symbol_samples=(n_samples,),
            data_symbols=50, tau_choices=tuple(range(-10, -4)) + tuple(range(5, 11)),
            seed=105,
        )
        for snr, n, no_comp, comp, ideal, bits in run_experiment(config).rows:
            se = lambda p: math.sqrt(max(p * (1 - p), 1e-12) / bits)
            pair_se = lambda a, b: math.sqrt(se(a) ** 2 + se(b) ** 2)
            lines.append(
                f"snr={snr:g} N={n}: ideal={ideal:.5f} comp={comp:.5f} no_comp={no_comp:.5f}"
            )
            if ideal > comp + 2 * pair_se(ideal, comp):
                problems.append(f"ideal>comp at snr={snr} N={n}")
            if comp > no_comp + 2 * pair_se(comp, no_comp):
                problems.append(f"comp>no_comp at snr={snr} N={n}")
            if snr >= 10.0 and no_comp - comp <= 2 * pair_se(no_comp, comp):
                problems.append(f"no significant recovery at snr={snr} N={n}")
    detail = "; ".join(lines + problems)
    report(4, "ber ordering", not problems, detail)


# ------------------------------------------------------------------ criterion 5


def test_criterion_5_estimator_exactness():
    rng = np.random.default_rng(106)
    exact_hits = 0
    cases = 1000
    for _ in range(cases):
        rows = int(rng.integers(1, 41))
        cols = int(rng.integers(8, 65))
        split = int(rng.integers(2, cols))
        v1 = float(rng.uniform(0.5, 2.0))
        ratio = float(rng.uniform(1.5, 20.0))
        v2 = v1 * ratio if rng.integers(2) else v1 / ratio
        y = exact_two_segment(rng, rows, cols, split, v1, v2)
        exact_hits += estimate_sto(y).n0_hat == split
    noisy_hits = 0
    noisy_cases = 1000
    for _ in range(noisy_cases):
        rows = int(rng.integers(20, 41))
        cols = int(rng.integers(8, 65))
        split = int(rng.integers(2, cols))
        v1, v2 = (1.0, 10.0) if rng.integers(2) else (10.0, 1.0)
        scale = np.concatenate(
            [np.full(split, math.sqrt(v1 / 2)), np.full(cols - split, math.sqrt(v2 / 2))]
        )
        y = scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        noisy_hits += estimate_sto(y).n0_hat == split
    ok = exact_hits == cases and noisy_hits >= 0.99 * noisy_cases
    report(
        5, "estimator exactness",
        ok,
        f"segment-exact: {exact_hits}/{cases}, gaussian ratio-10: {noisy_hits}/{noisy_cases}",
    )


# ------------------------------------------------------------------ criterion 6


def test_criterion_6_likelihood_algebra():
    rng = np.random.default_rng(107)
    mismatches = scale_breaks = 0
    cases = 10_000
    for i in range(cases):
        tie_case = i % 500 == 0
        if tie_case:
            # exact-tie corpus: unit magnitudes tie every candidate in both forms
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(4, 17))
            y = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(rows, cols)))
        else:
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(4, 25))
            y = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        est = estimate_sto(y)
        full = [full_log_likelihood(y, n0) for n0 in range(2, y.shape[1])]
        if est.n0_hat != 2 + int(np.argmax(full)):
            mismatches += 1
        if tie_case:
            # rescaling perturbs exactly-tied candidates at ulp level, so the
            # scale clause applies to the probability-one unique-argmax case
            continue
        for c in (1e-3, 1e3):
            if estimate_sto(c * y).n0_hat != est.n0_hat:
                scale_breaks += 1
    report(
        6, "likelihood algebra",
        mismatches == 0 and scale_breaks == 0,
        f"argmax mismatches: {mismatches}/{cases}, scale breaks: {scale_breaks}",
    )


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_threshold_correctness():
    ref = mp_threshold(50, 1, 2)
    point_ok = abs(ed_threshold(50, 1.0, 2.0) - ref) <= 1e-4
    # the upper bound requires N (r-1)^2 > 2 ln r, so the ratio grid stays
    # clear of 1 (just above it the threshold legitimately exceeds N p1)
    sandwich_ok = True
    for n in (10, 20, 50, 100, 200, 500, 1000):
        for p0 in (0.1, 1.0, 5.0):
            for ratio in (1.5, 2.0, 5.0, 10.0, 50.0, 100.0):
                t = ed_threshold(n, p0, p0 * ratio)
                if not n * p0 < t < n * p0 * ratio:
                    sandwich_ok = False
    report(
        7, "threshold correctness",
        point_ok and sandwich_ok,
        f"T(50,1,2)={ed_threshold(50, 1.0, 2.0):.6f} vs oracle {ref:.6f}; sandwich={sandwich_ok}",
    )


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_worker_count_determinism(monkeypatch):
    # these runs are too small to pay for a worker: at a break-even of 1 µs
    # every batch is worth a process of its own
    monkeypatch.setattr(harness, "FORK_BREAK_EVEN_US", 1)
    configs = {
        "mae": ExperimentConfig(
            kind="mae_vs_snr", snr_grid_db=(5.0, 10.0), trials=600, pilot_pairs=(10,),
            pilot_bit_samples=20, tau_choices=(-6, 6), seed=108,
        ),
        "hist": ExperimentConfig(
            kind="error_hist", snr_grid_db=(10.0,), trials=600, pilot_pairs=(10,),
            pilot_bit_samples=20, tau_choices=(-6, 6), seed=109,
        ),
        "ber": ExperimentConfig(
            kind="ber_compare", snr_grid_db=(10.0,), trials=150, pilot_pairs=(10,),
            pilot_bit_samples=20, symbol_samples=(15,), data_symbols=10,
            tau_choices=(-6, 6), seed=110,
        ),
    }
    ok = True
    details = []
    for name, config in configs.items():
        outputs = set()
        for workers in (1, 4, 16):
            outputs.add(run_experiment(replace(config, threads=workers)).to_csv())
        identical = len(outputs) == 1
        ok &= identical
        details.append(f"{name}: {'identical' if identical else 'DIVERGENT'} across 1/4/16 workers")
    report(8, "worker-count determinism", ok, "; ".join(details))
