"""Nine end-to-end acceptance checks, one test per criterion.

Each test prints one CRITERION line with the measured numbers before
asserting, so every verdict is visible in the pytest log.  The thresholds
are stated targets, not tuned to the implementation.

Two checks are posed where the method promises them.  Check 3 asks l0 to
return e1 up to the columns identical to +-column 1 (at N = 3 thousands of
columns collide, so no decoder returns exactly {e1}), on the trials where
basis pursuit fails strictly rather than by a tie.  Check 4 runs the
Gaussian ER(1) baseline at 14x64, the smallest row count at n = 64 where an
independent estimate puts the rate above 0.90 (at 12x64 it held on 71/100).
"""

import math
import os
import time

import numpy as np
import pytest

from spikybp import certify as ct
from spikybp.ensemble import (EnsembleSpec, ScalarLaw, empirical_moment,
                              fourth_moment_linear_form, moment_ratio,
                              plan_parameters, sample_matrix,
                              small_ball_paley_zygmund)
from spikybp.experiments import (ExperimentConfig, run_cell,
                                 run_gaussian_baseline)
from spikybp.recovery import (basis_pursuit, certify_uniqueness,
                              l0_brute_force)
from spikybp.simplex import INFEASIBLE, OPTIMAL, LinearProgram, solve

import oracles

N_ROWS = 3
N_COLS = 10**4
TRIALS = 200
CELL_SEED = 7


def report(capsys, line):
    with capsys.disabled():
        print("\n" + line)


@pytest.fixture(scope="module")
def theorem_a_cell():
    config = ExperimentConfig(
        N_ROWS, N_COLS, TRIALS, CELL_SEED,
        checks={"failure_cert", "clean_col", "spike_event", "l0_unique"})
    t0 = time.time()
    stats = run_cell(config)
    return config, stats, time.time() - t0


def test_criterion_1_failure_certificate_frequency(theorem_a_cell, capsys):
    config, stats, elapsed = theorem_a_cell
    st = stats.per_check["failure_cert"]
    ok = st.frequency >= 0.45 and elapsed <= 600.0
    report(capsys,
           f"CRITERION 1 {'PASS' if ok else 'FAIL'}: failure certificates "
           f"{st.successes}/{st.trials} = {st.frequency} (need >= 0.45), "
           f"wilson=[{st.wilson_95_interval[0]:.4f}, "
           f"{st.wilson_95_interval[1]:.4f}], cell runtime {elapsed:.1f}s "
           f"(need <= 600s)")
    assert st.frequency >= 0.45
    assert elapsed <= 600.0


def test_criterion_2_event_decomposition(theorem_a_cell, capsys):
    config, stats, _ = theorem_a_cell
    clean = stats.per_check["clean_col"]
    spike = stats.per_check["spike_event"]
    delta = stats.plan.delta
    pred_row = ct.spike_event_probability(N_ROWS, N_COLS, delta)
    pred_all = pred_row ** N_ROWS
    se = math.sqrt(pred_all * (1.0 - pred_all) / TRIALS)
    dev = abs(spike.frequency - pred_all)
    ok = clean.frequency >= 0.95 and dev <= 3.0 * se
    report(capsys,
           f"CRITERION 2 {'PASS' if ok else 'FAIL'}: clean-col-1 "
           f"{clean.frequency} (need >= 0.95, formula "
           f"{ct.clean_column_probability(N_ROWS, delta):.6f}); all-rows "
           f"spike {spike.frequency} vs product-form {pred_all:.6f}, "
           f"|dev| = {dev:.4f} <= 3se = {3.0 * se:.4f}")
    assert clean.frequency >= 0.95
    assert dev <= 3.0 * se


def duplicates_of_first(g):
    """{j: +1 or -1} for every column equal to +-column 1, column 1 included.

    Exact entry comparison; these are the 1-sparse vectors no decoder can
    tell apart from e1, since Gamma(+-e_j) = Gamma e1.
    """
    plus = np.nonzero(np.all(g == g[:, :1], axis=0))[0]
    minus = np.nonzero(np.all(g == -g[:, :1], axis=0))[0]
    return {**{int(j): 1.0 for j in plus}, **{int(j): -1.0 for j in minus}}


def test_criterion_3_l0_succeeds_where_bp_fails(theorem_a_cell, capsys):
    """l0 returns e1 up to identical columns wherever BP strictly fails.

    At N = 3 a normalized spiky entry takes 4 values, so about a quarter
    of the columns equal +-Gamma e1 and {e1} alone is never the l0
    solution set (the record's l0_unique, which asks for exactly {e1}, is
    0 on all 200 trials at seed 7).  The check is therefore made up to
    those duplicates, on the trials where basis pursuit's optimum lies
    strictly below ||e1||_1 = 1: there BP returns something cheaper than
    every vector indistinguishable from e1.  A certificate with
    ||w||_1 = 1 is only a tie, which duplicate columns produce as well.
    No admissible desk-scale cell avoids the duplicates: C1-C3 force
    n >= 24 N^4 ln N, while P(no duplicate) >= 0.99 needs
    n <= 0.01 * 2^(N-1), so N >= 35 and n >= 1.3e8.
    """
    config, stats, _ = theorem_a_cell
    law = stats.plan.law()
    dup_counts = []
    strict = spiked = good = 0
    for r in stats.records:
        g = sample_matrix(EnsembleSpec(law, N_ROWS, N_COLS, r.seed)).entries
        dups = duplicates_of_first(g)
        dup_counts.append(len(dups) - 1)
        if basis_pursuit(g, g[:, 0]).l1_value >= 1.0 - 1e-9:
            continue
        strict += 1
        spiked += r.spike_event_all_rows
        sols = l0_brute_force(g, g[:, 0], 1)
        got = {s.support[0]: s.values[0] for s in sols}
        good += (got.keys() == dups.keys()
                 and all(abs(v - dups[j]) <= 1e-12 for j, v in got.items()))
    assert strict, "no trial where basis pursuit strictly fails"
    frac = good / strict
    unique = sum(1 for r in stats.records if r.l0_unique)
    ok = frac >= 0.99
    report(capsys,
           f"CRITERION 3 {'PASS' if ok else 'FAIL'}: BP optimum < 1 on "
           f"{strict}/{TRIALS} trials (all-rows spike on {spiked}); l0 set "
           f"= e1 plus its {min(dup_counts)}-{max(dup_counts)} duplicate "
           f"columns on {good}/{strict} = {frac} (need >= 0.99); exactly "
           f"{{e1}} on {unique}/{TRIALS}")
    assert frac >= 0.99


GAUSS_ROWS = 14
GAUSS_COLS = 64


def test_criterion_4_gaussian_nsp_baseline(capsys):
    """Exact ER(1) on >= 90% of Gaussian draws, at the row count N where
    that rate holds.

    The paper fixes only N >~ d log(en/d) with an unspecified constant, so
    N follows a rule: the smallest N whose independent estimate at n = 64
    clears 0.90 at its one-sided 99% lower bound (p - 2.326 se).  The
    estimates come from oracles.gaussian_er1_rate(N, 64, 400, seed=N):
    numpy default_rng draws and one HiGHS LP per column, independent of
    the package's sampler and simplex.

        N = 12: 293/400 = 0.733 (lower bound 0.681)
        N = 13: 361/400 = 0.903 (lower bound 0.868)
        N = 14: 385/400 = 0.963 (lower bound 0.940)
        N = 16: 397/400 = 0.993 (lower bound 0.982)

    At 12x64 the package measures 71/100 on seed 2026, in line with the
    estimate; test_certify checks its verdicts against the same oracle.
    """
    t0 = time.time()
    stats = run_gaussian_baseline(GAUSS_ROWS, GAUSS_COLS, 100, seed=2026)
    elapsed = time.time() - t0
    st = stats.per_check["nsp_gaussian_baseline"]
    ok = st.frequency >= 0.90 and elapsed <= 120.0
    report(capsys,
           f"CRITERION 4 {'PASS' if ok else 'FAIL'}: exact ER(1) held on "
           f"{st.successes}/{st.trials} gaussian {GAUSS_ROWS}x{GAUSS_COLS} "
           f"draws = {st.frequency} (need >= 0.90), runtime {elapsed:.1f}s "
           f"(need <= 120s)")
    assert st.frequency >= 0.90
    assert elapsed <= 120.0


def test_criterion_5_compatibility_collapse(theorem_a_cell, capsys):
    config, stats, _ = theorem_a_cell
    law = stats.plan.law()
    picked = [r for r in stats.records if r.failure_found][:20]
    assert len(picked) == 20, "need 20 certificate-bearing trials"
    worst = 0.0
    for r in picked:
        mat = sample_matrix(EnsembleSpec(law, N_ROWS, N_COLS, r.seed))
        phi2 = ct.compatibility_constant(mat, (r.witness_j,), 1.0).phi2
        worst = max(worst, phi2)
    ortho = ct.compatibility_constant(np.eye(8), (0,), 1.0).phi2
    ok = worst <= 1e-6 and abs(ortho - 1.0) <= 1e-6
    report(capsys,
           f"CRITERION 5 {'PASS' if ok else 'FAIL'}: phi2 <= {worst:.3e} "
           f"on 20 certificate trials (need <= 1e-6); orthonormal phi2 = "
           f"{ortho!r} (need 1 +- 1e-6)")
    assert worst <= 1e-6
    assert abs(ortho - 1.0) <= 1e-6


def test_criterion_6_formula_monte_carlo_agreement(capsys):
    plan = plan_parameters(N_ROWS, N_COLS)
    delta = plan.delta
    sims = 10**4
    clean_f, spike_f, _ = oracles.simulate_spike_events(
        N_ROWS, N_COLS, delta, sims, seed=41)
    p_clean = ct.clean_column_probability(N_ROWS, delta)
    p_spike = ct.spike_event_probability(N_ROWS, N_COLS, delta)
    se_c = math.sqrt(p_clean * (1.0 - p_clean) / sims)
    se_s = math.sqrt(p_spike * (1.0 - p_spike) / sims)
    prob_ok = (abs(clean_f - p_clean) <= 3.0 * se_c
               and abs(spike_f - p_spike) <= 3.0 * se_s)

    law = plan.law()
    moment_devs = []
    for p in (2.0, 4.0, plan.p):
        est = empirical_moment(law, p, 10**6, seed=5)
        moment_devs.append(abs(est / moment_ratio(law, p) - 1.0))
    moments_ok = max(moment_devs) <= 0.05
    ok = prob_ok and moments_ok
    report(capsys,
           f"CRITERION 6 {'PASS' if ok else 'FAIL'}: clean dev "
           f"{abs(clean_f - p_clean):.2e} <= {3 * se_c:.2e}, spike dev "
           f"{abs(spike_f - p_spike):.2e} <= {3 * se_s:.2e}; moment rel "
           f"devs {[f'{d:.4f}' for d in moment_devs]} (need <= 0.05)")
    assert abs(clean_f - p_clean) <= 3.0 * se_c
    assert abs(spike_f - p_spike) <= 3.0 * se_s
    assert moments_ok


def test_criterion_7_lp_solver_oracle_equivalence(capsys):
    gen = np.random.default_rng(2718)
    optimal = infeasible = 0
    worst = 0.0
    for i in range(100):
        a = gen.standard_normal((3, 6))
        lo = gen.uniform(-2.0, 0.0, 6)
        hi = lo + gen.uniform(0.5, 3.0, 6)
        if i % 2 == 0:
            b = a @ gen.uniform(lo, hi)
        else:
            b = gen.standard_normal(3)
        c = gen.standard_normal(6)
        # the solver takes the box LP in standard form: x = lo + u
        c_std, a_std, b_std, offset = oracles.box_to_standard(c, a, b, lo, hi)
        sol = solve(LinearProgram(c_std, a_std, b_std))
        st, val = oracles.lp_vertex_oracle(c, a, b, lo, hi)
        if st == "optimal":
            assert sol.status == OPTIMAL, f"case {i}"
            value = sol.objective_value + offset
            dev = abs(value - val)
            worst = max(worst, dev)
            assert dev <= 1e-9 * (1.0 + abs(val)), f"case {i}"
            # LpSolution invariants, on the box LP's x
            x = lo + sol.x[:6]
            assert np.all(x >= lo - 1e-8)
            assert np.all(x <= hi + 1e-8)
            resid = np.max(np.abs(a @ x - b))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(b)))
            assert value == pytest.approx(float(c @ x), abs=1e-9)
            assert sol.iterations >= 0
            optimal += 1
        else:
            assert sol.status == INFEASIBLE, f"case {i}"
            infeasible += 1
    report(capsys,
           f"CRITERION 7 PASS: 100 random LPs match vertex enumeration "
           f"({optimal} optimal, {infeasible} infeasible, worst optimum "
           f"gap {worst:.2e} <= 1e-9)")


def test_criterion_8_nsp_vs_uniqueness_oracle(capsys):
    t0 = time.time()
    agree = 0
    holds_count = 0
    for seed in range(50):
        mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 10, 20,
                                         seed=seed))
        g = mat.entries
        verdict = ct.er_check_nsp(g, 1)
        all_unique = True
        for j in range(20):
            for s in (1.0, -1.0):
                y = s * g[:, j]
                res = certify_uniqueness(g, y, basis_pursuit(g, y))
                expect = np.zeros(20)
                expect[j] = s
                if not (res.unique == "unique"
                        and np.allclose(res.minimizer, expect, atol=1e-7)):
                    all_unique = False
        agree += verdict.holds == all_unique
        holds_count += verdict.holds
    elapsed = time.time() - t0
    ok = agree == 50
    report(capsys,
           f"CRITERION 8 {'PASS' if ok else 'FAIL'}: er_check_nsp agreed "
           f"with exhaustive per-target uniqueness on {agree}/50 gaussian "
           f"10x20 draws (ER(1) held on {holds_count}); {elapsed:.1f}s")
    assert agree == 50


def test_criterion_9_fourth_moment_and_paley_zygmund(capsys):
    plan = plan_parameters(N_ROWS, N_COLS)
    gen = np.random.default_rng(909)
    # exact enumeration, supports of size 1..6
    worst_rel = 0.0
    laws = [("spiky", plan.delta, plan.big_r),
            ("spiky", 0.2, 4.0),
            ("rademacher", 0.0, 0.0),
            ("gaussian", 0.0, 0.0)]
    for k in range(1, 7):
        kind, d, r = laws[k % len(laws)]
        law = {"spiky": lambda: ScalarLaw.spiky(d, r),
               "rademacher": ScalarLaw.rademacher,
               "gaussian": ScalarLaw.gaussian}[kind]()
        t = np.zeros(12)
        idx = gen.choice(12, size=k, replace=False)
        t[idx] = gen.uniform(-1.0, 1.0, k)
        mine = fourth_moment_linear_form(law, t)
        exact = oracles.enum_fourth_moment(kind, d, r, t)
        rel = abs(mine - exact) / exact
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-10, (kind, k)

    # the small-ball bound must sit below the simulated frequency
    violations = 0
    margin_min = math.inf
    for case in range(20):
        kind, d, r = laws[case % len(laws)]
        law = {"spiky": lambda: ScalarLaw.spiky(d, r),
               "rademacher": ScalarLaw.rademacher,
               "gaussian": ScalarLaw.gaussian}[kind]()
        k = int(gen.integers(1, 7))
        t = gen.uniform(-1.0, 1.0, k)
        theta = float(gen.uniform(0.05, 0.95))
        bound = small_ball_paley_zygmund(law, t, theta)
        samples = 20000
        freq = oracles.simulate_small_ball(kind, d, r, t, theta, samples,
                                           seed=1000 + case)
        se = max(math.sqrt(freq * (1.0 - freq) / samples), 1.0 / samples)
        margin_min = min(margin_min, freq + 3.0 * se - bound)
        if bound > freq + 3.0 * se:
            violations += 1
    ok = violations == 0
    report(capsys,
           f"CRITERION 9 {'PASS' if ok else 'FAIL'}: fourth-moment "
           f"enumeration worst rel dev {worst_rel:.2e} (need <= 1e-10); "
           f"small-ball bound below empirical + 3se in 20/20 cases "
           f"(min margin {margin_min:.4f})" if ok else
           f"CRITERION 9 FAIL: {violations} small-ball violations")
    assert violations == 0
