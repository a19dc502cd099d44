import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spikybp import certify as ct, cli, recovery, rng, simplex
from spikybp import experiments as ex
from spikybp.ensemble import (EnsembleSpec, MeasurementMatrix, ScalarLaw,
                              plan_parameters, sample_matrix,
                              sample_spike_mask, write_matrix_text)
from spikybp.recovery import (SparseVector, basis_pursuit, certify_uniqueness,
                             column_classes)

import oracles

DUP = np.array([[1.0, 1.0, 0.3], [0.5, 0.5, -0.2]])  # columns 1 and 2 equal


def target(dim, j, val=1.0):
    return SparseVector(dim, (j,), (val,))


@pytest.fixture
def bp_count(monkeypatch):
    """Records each basis_pursuit call made through the recovery module."""
    calls = []
    solve = recovery.basis_pursuit

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(recovery, "basis_pursuit", counted)
    return calls


# ---------------------------------------------------- failure certificates

def test_identity_has_no_certificate():
    assert ct.er_failure_certificate(np.eye(4), target(4, 0)) is None


def test_duplicate_column_certificate():
    cert = ct.er_failure_certificate(DUP, target(3, 0))
    assert cert is not None
    assert cert.target.support == (0,)
    w = cert.witness
    assert abs(w[0]) <= 1e-12  # witness avoids the target support
    assert np.sum(np.abs(w)) <= 1.0 + 1e-8
    y = DUP @ target(3, 0).to_dense()
    assert np.max(np.abs(DUP @ w - y)) <= 1e-8 * (1.0 + np.max(np.abs(y)))
    assert cert.l1_witness == pytest.approx(np.sum(np.abs(w)))
    assert cert.l1_witness == pytest.approx(1.0, abs=1e-12)  # a tie, r = 1
    assert cert.residual <= 1e-8


def test_certificate_respects_sign_and_scale_of_target():
    cert = ct.er_failure_certificate(DUP, target(3, 1, -1.0))
    assert cert is not None
    assert abs(cert.witness[1]) <= 1e-12
    assert cert.witness[0] == pytest.approx(-1.0, abs=1e-8)


def test_certificate_is_the_least_l1_representation():
    # a certificate exists at e_j iff r_j <= 1, and l1_witness is r_j; the
    # draws have ties (r_j = 1, from +-equal columns), strict failures and
    # successes, with every other r_j at least 0.009 away from 1
    draws = [DUP]
    for law in (ScalarLaw.gaussian(), ScalarLaw.rademacher(),
                ScalarLaw.spiky(0.2, 3.0)):
        for n_rows, n_cols in ((3, 8), (4, 10), (5, 12)):
            for seed in range(2):
                draws.append(sample_matrix(
                    EnsembleSpec(law, n_rows, n_cols, seed)).entries)
    found = 0
    for g in draws:
        r = oracles.er1_representation_norms(g)
        for j in range(g.shape[1]):
            cert = ct.er_failure_certificate(g, target(g.shape[1], j))
            assert (cert is not None) == (r[j] <= 1.0 + 1e-9)
            if cert is not None:
                found += 1
                assert cert.l1_witness == pytest.approx(r[j], abs=1e-9)
                assert cert.l1_witness == pytest.approx(
                    np.abs(cert.witness).sum(), abs=1e-12)
    assert found == 71  # of 183 targets


@pytest.mark.parametrize("eps, found", [(0.5e-9, True), (0.9e-9, True),
                                        (1.1e-9, False), (2e-9, False)])
def test_certificate_tie_margin_is_feas_tol(eps, found):
    # the only representation of e_0 off its support has r = 1 + eps; a tie
    # counts as a failure up to r <= 1 + simplex.FEAS_TOL
    g = np.array([[1.0, 1.0 / (1.0 + eps)], [0.0, 0.0]])
    cert = ct.er_failure_certificate(g, target(2, 0))
    assert (cert is not None) == found
    if found:
        assert cert.l1_witness == pytest.approx(1.0 + eps, abs=1e-15)
    # the trial's search takes the same decision at column 0 (past it,
    # column 1 has r = 1/(1 + eps) < 1)
    j, first = ct.first_failure(g)
    assert (j == 0) == found
    if found:
        assert first.witness.tobytes() == cert.witness.tobytes()
        assert first.l1_witness == cert.l1_witness


def test_certificate_validation():
    with pytest.raises(ValueError):
        ct.er_failure_certificate(DUP, target(4, 0))  # dim mismatch
    with pytest.raises(ValueError):
        ct.er_failure_certificate(DUP, target(3, 0, 2.0))  # l1 != 1


def test_certificate_text_roundtrip():
    cert = ct.er_failure_certificate(DUP, target(3, 0))
    text = ct.format_certificate(cert)
    back = ct.parse_certificate(text)
    assert back.target == cert.target
    assert np.allclose(back.witness, cert.witness, atol=1e-15)
    assert back.residual == cert.residual
    assert back.l1_witness == cert.l1_witness


# --------------------------------------------- the theorem-a failure search

def _draw(law, n_rows, n_cols, t):
    return sample_matrix(EnsembleSpec(law, n_rows, n_cols,
                                      rng.mix_seed(7, t))).entries


@pytest.mark.parametrize("law, shape, witnesses", [
    (ScalarLaw.gaussian(), (16, 300), [237, 50, 71, None]),
    (ScalarLaw.rademacher(), (16, 400), [25, 244, None, 134]),
], ids=["gaussian", "rademacher"])
def test_er1_decision_matches_the_every_column_loop(law, shape, witnesses):
    # the bound-pruned search finds the loop's first failing column, and
    # its certificate has the loop's bits; the witness is rarely column 1
    # and on some draws no column fails
    for t, expect in enumerate(witnesses):
        g = _draw(law, *shape, t)
        n_cols = g.shape[1]
        j_ref, ref = oracles.first_failure_every_column(
            n_cols, lambda j: ct.er_failure_certificate(g, target(n_cols, j)))
        j, cert = ct.first_failure(g)
        assert j == j_ref == expect, f"draw {t}"
        if ref is None:
            assert cert is None
            continue
        assert cert.target == ref.target
        assert cert.witness.tobytes() == ref.witness.tobytes()
        assert cert.residual == ref.residual
        assert cert.l1_witness == ref.l1_witness


def test_er1_decision_skips_a_column_outside_the_span(bp_count):
    # column 0 is e1, outside the span of the others, which all equal e2:
    # its LP has no solution and the search goes on to the tie at r = 1
    g = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    with pytest.raises(recovery.NoSolutionError):
        basis_pursuit(g[:, 1:], g[:, 0])
    j_ref, ref = oracles.first_failure_every_column(
        4, lambda j: ct.er_failure_certificate(g, target(4, j)))
    bp_count.clear()
    j, cert = ct.first_failure(g)
    assert np.array_equal(bp_count[0][1], g[:, 0])
    assert j == j_ref == 1
    assert cert.target == ref.target
    assert cert.witness.tobytes() == ref.witness.tobytes()
    assert cert.residual == ref.residual
    assert cert.l1_witness == ref.l1_witness == 1.0


def test_er1_decision_prunes_rademacher_columns(bp_count):
    # ER(1) holds on these draws; the loop solved 400 LPs per draw, and the
    # bounds rule out every column but the first, which is solved before them
    for t in range(4):
        bp_count.clear()
        assert ct.first_failure(
            _draw(ScalarLaw.rademacher(), 24, 400, t)) == (None, None)
        assert len(bp_count) <= 2


def test_er1_decision_on_theorem_a_needs_one_lp_and_no_pinv(bp_count,
                                                            monkeypatch):
    def no_pinv(*args, **kwargs):
        raise AssertionError("pinv called")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    mat = sample_matrix(EnsembleSpec(plan_parameters(3, 10**4).law(), 3,
                                     10**4, rng.mix_seed(2026, 0)))
    j, cert = ct.first_failure(mat)
    assert j == 0 and cert.l1_witness < 1.0
    assert len(bp_count) == 1


# --------------------------------------------------------------- NSP check

def er1_against_oracle(g):
    """er_check_nsp(g, 1), run with warnings as errors, against the HiGHS
    representation norms r: worst_value = 1 / (1 + min r) and ER(1)
    holds iff min r clears the tie band, min r > 1 + simplex.FEAS_TOL."""
    r = oracles.er1_representation_norms(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = ct.er_check_nsp(g, 1)
    expect = 1.0 / (1.0 + r.min())
    assert verdict.worst_value == pytest.approx(expect, abs=1e-9)
    assert verdict.holds == (r.min() > 1.0 + simplex.FEAS_TOL)
    assert r[verdict.worst_support[0]] == pytest.approx(r.min(), abs=1e-9)
    assert verdict.worst_signs == (1,)
    return verdict


def test_nsp_identity_holds_with_half_margin(lp_count):
    # independent columns: every r_j is infinite, with no LP
    verdict = er1_against_oracle(np.eye(5))
    assert verdict.holds and verdict.d == 1
    assert verdict.worst_value == 0.0 and verdict.margin == 0.5
    assert len(lp_count) == 0


def test_nsp_duplicate_columns_fail():
    verdict = ct.er_check_nsp(DUP, 1)
    assert not verdict.holds
    assert verdict.margin <= 1e-12
    assert verdict.worst_value >= 0.5 - 1e-12
    assert verdict.worst_support in ((0,), (1,))


def test_nsp_d2_identity():
    verdict = ct.er_check_nsp(np.eye(6), 2)
    assert verdict.holds and verdict.d == 2
    assert len(verdict.worst_support) == 2
    # ker I = {0}: every stacked system [I; c'] z = e_last is infeasible
    assert verdict.worst_value == 0.0


def test_nsp_guards(bp_count):
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.eye(3), 3)
    # d = 1 has no size limit: the projector bounds come in row blocks of
    # 32 MB, where the 5000 x 5000 projector took 200 MB
    mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 16, 5000,
                                     rng.mix_seed(7, 0)))
    tracemalloc.start()
    try:
        verdict = ct.er_check_nsp(mat, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert not verdict.holds and verdict.worst_support == (2575,)
    assert verdict.worst_value == pytest.approx(0.658277556061332, abs=1e-12)
    assert len(bp_count) <= 10
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.zeros((1, 300)), 2)
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.zeros((2, 1)), 2)


def every_unit_target_unique(g):
    """Is every +-e_j basis pursuit's unique minimizer of its own data?"""
    for j, s in itertools.product(range(g.shape[1]), (1.0, -1.0)):
        y = s * g[:, j]
        res = certify_uniqueness(g, y, basis_pursuit(g, y))
        expect = np.zeros(g.shape[1])
        expect[j] = s
        if not (res.unique == "unique"
                and np.allclose(res.minimizer, expect, atol=1e-7)):
            return False
    return True


def test_nsp_agrees_with_per_target_uniqueness():
    # ER(1) <=> every +-e_j is the unique BP minimizer of its own data
    for seed in range(6):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 12,
                                       seed=seed)).entries
        assert ct.er_check_nsp(g, 1).holds == every_unit_target_unique(g), \
            f"seed {seed}"


TAU = simplex.FEAS_TOL


@pytest.mark.parametrize("eps", [0.5 * TAU, 0.9 * TAU, 1.1 * TAU, 2 * TAU,
                                 3e-7, 7e-7, 2e-6], ids="{:.2g}".format)
def test_one_tie_band_for_every_r_against_1_verdict(eps, tmp_path, capsys):
    # column 3 = c (e1 + e2) has r_3 = 2c = 1 + eps, the least r_j; ER(1),
    # the certificate search and uniqueness all flip at r = 1 + FEAS_TOL
    c = (1.0 + eps) / 2.0
    g = np.array([[1.0, 0.0, c], [0.0, 1.0, c]])
    holds = eps > TAU
    assert ct.er_check_nsp(g, 1).holds == holds
    assert (ct.first_failure(g) == (None, None)) == holds
    assert every_unit_target_unique(g) == holds
    if eps not in (0.5 * TAU, 2 * TAU):
        return  # the CLI at one eps on each side of the band
    path = str(tmp_path / "m.txt")
    write_matrix_text(MeasurementMatrix(2, 3, g, 1.0), path)
    capsys.readouterr()
    assert cli.run(["nsp", "--matrix", path, "--d", "1"]) == 0
    assert capsys.readouterr().out.split()[0] == ("holds" if holds
                                                  else "fails")
    assert cli.run(["certify", "--matrix", path, "--target", "e3"]) == (
        0 if holds else 2)
    capsys.readouterr()
    assert cli.run(["recover", "--matrix", path, "--target", "e3",
                    "--unique"]) == 0
    assert f"unique: {'unique' if holds else 'not_unique'}\n" in (
        capsys.readouterr().out)


def test_nsp_agrees_with_highs_on_gaussian_baseline_draws(lp_count):
    # the first criterion-4 draws at 12x64; draw 3 fails ER(1), so both
    # verdicts are exercised, and worst_value = 1 / (1 + min_j r_j).  The
    # dual bounds prune all but a few of the 64 least-l1 LPs per draw.
    verdicts = []
    for t in range(4):
        mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 12, 64,
                                         rng.mix_seed(2026, t)))
        r = oracles.er1_representation_norms(mat.entries)
        verdict = ct.er_check_nsp(mat, 1)
        assert np.min(np.abs(r - 1.0)) > 1e-3, f"draw {t} is a near tie"
        assert verdict.holds == bool(np.all(r > 1.0)), f"draw {t}"
        assert verdict.worst_value == pytest.approx(1.0 / (1.0 + r.min()),
                                                    abs=1e-9)
        verdicts.append(verdict.holds)
    assert False in verdicts and True in verdicts
    assert len(lp_count) <= 128


def test_nsp_margin_pin_on_gaussian_baseline():
    # the 100 draws of run_gaussian_baseline(12, 64, 100, seed=2026): the
    # verdict nearest its threshold is draw 53 (a failure), and it stays
    # far outside the tolerance band, so no verdict rests on the tolerance
    verdicts = [ct.er_check_nsp(sample_matrix(EnsembleSpec(
        ScalarLaw.gaussian(), 12, 64, rng.mix_seed(2026, t))), 1)
        for t in range(100)]
    margins = np.array([abs(v.margin) for v in verdicts])
    t = int(np.argmin(margins))
    assert t == 53 and not verdicts[t].holds
    assert margins[t] == pytest.approx(9.899e-4, abs=5e-8)
    assert margins[t] > 1e5 * simplex.FEAS_TOL
    assert sum(v.holds for v in verdicts) == 71


def _gaussian(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def _zero_column():
    g = _gaussian((4, 9), 5)
    g[:, 2] = 0.0
    return g


def _repeated_row():
    g = _gaussian((5, 12), 6)
    g[4] = g[1]
    return g


@pytest.mark.parametrize("make, holds, max_lps", [
    (lambda: DUP, False, 3),
    (_zero_column, False, 9),
    (lambda: _gaussian((6, 6), 7), True, 0),   # square: independent columns
    (lambda: _gaussian((9, 5), 8), True, 0),   # tall
    (_repeated_row, None, 12),
    (lambda: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), False, 3),
], ids=["dup", "zero_column", "square", "tall", "repeated_row",
        "independent_column"])
def test_er1_edge_cases_match_oracle(make, holds, max_lps, lp_count):
    verdict = er1_against_oracle(make())
    if holds is not None:
        assert verdict.holds == holds
    assert len(lp_count) <= max_lps


def test_er1_small_baseline_draws_match_oracle(lp_count):
    # the 8x8 draws of run_gaussian_baseline(8, 8, 5, 3): square and
    # full rank, so every column is outside the span of the others
    for t in range(5):
        mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 8, 8,
                                         rng.mix_seed(3, t)))
        assert er1_against_oracle(mat.entries).holds
    assert len(lp_count) == 0


def test_nsp_d2_halves_the_sign_patterns(lp_count):
    # (S, s) and (S, -s) have equal values under h -> -h, so 2 C(n, 2)
    # LPs reach the maximum over all 4 C(n, 2) sign patterns
    for t in range(3):
        mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 10,
                                         rng.mix_seed(2026, t)))
        lp_count.clear()
        verdict = ct.er_check_nsp(mat, 2)
        assert len(lp_count) == 2 * math.comb(10, 2)
        assert verdict.worst_signs[0] == 1
        assert verdict.worst_value == pytest.approx(
            oracles.nsp_worst_value(mat.entries, 2), abs=1e-9)


def test_every_package_lp_has_a_nonnegative_cost(monkeypatch):
    # the simplex has no unbounded status: an infinite step raises, which
    # a cost >= 0 rules out.  Every LP the package builds goes through
    # simplex.solve; record each one along every path that builds them.
    lps, solve = [], simplex.solve

    def recorded(lp, *args, **kwargs):
        lps.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(simplex, "solve", recorded)
    gauss = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 12, 7)).entries
    spiky = sample_matrix(EnsembleSpec(plan_parameters(3, 2000).law(), 3,
                                       2000, 5))
    assert spiky.n_cols > recovery.SIFT_COLUMNS
    # a target past the ||c||_inf bound: the kernel LP decides it
    g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 10, 20, 0)).entries
    x = np.zeros(20)
    x[17] = 1.0
    for call in (lambda: basis_pursuit(gauss, gauss[:, 0] - gauss[:, 1]),
                 lambda: basis_pursuit(spiky, spiky.entries[:, 0].copy()),
                 lambda: ct.er_failure_certificate(spiky, target(2000, 0)),
                 lambda: ct.er_check_nsp(gauss, 1),
                 lambda: ct.er_check_nsp(gauss, 2),
                 lambda: certify_uniqueness(g, g @ x,
                                            recovery.RecoveryResult(x, 1.0))):
        before = len(lps)
        call()
        assert len(lps) > before
    assert all(lp.objective.min() >= 0.0 for lp in lps)


def test_verdict_format():
    text = ct.format_verdict(ct.er_check_nsp(np.eye(3), 1))
    assert text.startswith("holds d=1 margin=0.5")
    assert "worst_S=" in text and "worst_signs=" in text


# ------------------------------------------------------------ probabilities

def test_probability_formula_values():
    # frozen pilot values at the (3, 1e4) plan delta
    d = 0.0003295836866004329
    assert ct.spike_event_probability(3, 10**4, d) == pytest.approx(
        0.9628903347954872, rel=1e-14)
    assert ct.clean_column_probability(3, d) == pytest.approx(
        0.999011574780617, rel=1e-14)


def test_probability_edges():
    assert ct.spike_event_probability(2, 1, 0.5) == 0.0
    assert ct.spike_event_probability(1, 2, 1.0) == 1.0
    assert ct.spike_event_probability(3, 100, 0.0) == 0.0
    assert ct.clean_column_probability(0, 0.3) == 1.0
    assert ct.clean_column_probability(4, 0.0) == 1.0
    assert ct.clean_column_probability(4, 1.0) == 0.0
    with pytest.raises(ValueError):
        ct.spike_event_probability(0, 5, 0.1)
    with pytest.raises(ValueError):
        ct.clean_column_probability(3, 1.5)


def test_probability_formulas_against_simulation():
    n_rows, n_cols, delta = 3, 800, 0.004
    trials = 4000
    clean, covered0, _ = oracles.simulate_spike_events(
        n_rows, n_cols, delta, trials, seed=17)
    p_clean = ct.clean_column_probability(n_rows, delta)
    p_spike = ct.spike_event_probability(n_rows, n_cols, delta)
    se_clean = math.sqrt(p_clean * (1 - p_clean) / trials)
    se_spike = math.sqrt(p_spike * (1 - p_spike) / trials)
    assert abs(clean - p_clean) <= 4.0 * se_clean
    assert abs(covered0 - p_spike) <= 4.0 * se_spike


# ------------------------------------------------------ the proof's witness

def _worst_witness_l1(spike):
    """max ||V^-1 a||_1 in Fractions over every N = 3 witness matrix V of
    the unnormalized law, each column signed so that its spike is +spike
    and +-1 elsewhere, and every clean column a in {+-1}^3."""
    worst = 0
    for off in itertools.product((1, -1), repeat=6):
        entries = iter(off)
        v = [[spike if i == j else next(entries) for j in range(3)]
             for i in range(3)]
        for a in itertools.product((1, -1), repeat=3):
            worst = max(worst, sum(abs(x) for x in oracles.exact_solve(v, a)))
    return worst


PLANNED_R = plan_parameters(3, 10**4).big_r


@pytest.mark.parametrize("big_r, want", [
    (PLANNED_R, None),
    (6.0, Fraction(3, 5)),  # R = 2N: condition C1's edge
    (5.0, Fraction(3, 4)),
    (4.0, Fraction(1)),  # a tie below 2N: C1 is sufficient, not necessary
], ids=("planned_R", "R6", "R5", "R4"))
def test_proof_witness_fails_basis_pursuit_on_every_n3_draw(big_r, want):
    # The sampler's entries before its row scale are +-1 and +-(1 + R) in
    # doubles, and V^-1 a does not change when both scale alike.  So over
    # all 64 x 8 cases an all-rows spike event with a clean column 1 makes
    # basis pursuit fail strictly at e1 whenever the worst is below 1.
    worst = _worst_witness_l1(Fraction(1.0 + big_r))
    if want is None:
        assert worst < 1 and float(worst) == 0.4591025208585158
    else:
        assert worst == want


def test_proof_witness_on_every_event_trial():
    # On each seed-2026 theorem-a trial the CSV marks as an event, the
    # witness columns V solve Gamma_V w = a_1 exactly over the matrix's
    # doubles with ||w||_1 < 1: a failure certificate with N nonzeros,
    # whose norm the LP's least r_0 (witness_j = 0) never exceeds.
    stats = ex.run_cell(ex.ExperimentConfig(
        3, 10**4, 200, 2026, checks={"failure_cert", "spike_event"}))
    worst, events = 0, 0
    for r in stats.records:
        spec = EnsembleSpec(stats.plan.law(), 3, 10**4, r.seed)
        cols = ex._spike_event_all_rows(sample_spike_mask(spec))
        assert r.spike_event_all_rows == (cols is not None)
        if cols is None:
            continue
        events += 1
        g = sample_matrix(spec).entries
        v, a1 = g[:, cols].tolist(), g[:, 0].tolist()
        w = oracles.exact_solve(v, a1)
        assert [sum(Fraction(vi) * wi for vi, wi in zip(row, w))
                for row in v] == a1
        l1 = sum(abs(x) for x in w)
        assert l1 < 1
        assert r.witness_j == 0
        assert r.certificate.l1_witness <= l1 + 1e-12
        worst = max(worst, l1)
    assert events == 171
    assert float(worst) == 0.4591025208585158  # the N = 3 worst case


# ----------------------------------------------------- compatibility const

def test_compat_orthonormal_columns_is_one():
    value = ct.compatibility_constant(np.eye(4), (0,), 1.0)
    assert value.phi2 == pytest.approx(1.0, abs=1e-9)
    assert value.s_set == (0,) and value.l_budget == 1.0
    assert value.iterations >= 1


def test_compat_duplicate_column_collapses():
    value = ct.compatibility_constant(DUP, (0,), 1.0)
    assert value.phi2 <= 1e-12
    beta = value.minimizer_beta
    # on-support part is a signed unit mass
    assert abs(abs(beta[0]) - 1.0) <= 1e-9
    assert np.sum(np.abs(beta[1:])) <= 1.0 + 1e-9


def test_compat_pair_support():
    g = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, -0.1]])
    value = ct.compatibility_constant(g, (0, 1), 1.0)
    assert value.s_set == (0, 1)
    assert 0.0 <= value.phi2 <= 2.0 * (1.0 + 0.7**2 + 0.1**2)


def test_compat_matches_grid_and_slsqp_oracles(monkeypatch):
    monkeypatch.setattr(ct, "FW_GAP_TOL", 1e-9)
    gen = np.random.default_rng(3)
    for l_budget in (1.0, 1.7):
        for _ in range(4):
            g = gen.standard_normal((2, 3))
            mine = ct.compatibility_constant(g, (0,), l_budget).phi2
            grid_min, slsqp_min, grid_err = oracles.compat_oracle(
                g, 0, (1.0, -1.0), l_budget)
            best = min(grid_min, slsqp_min)
            assert mine <= best + 1e-6
            assert mine >= best - grid_err - 1e-6


def same_as_every_column(g, s, l_budget=1.0):
    """compatibility_constant against Frank-Wolfe over every column
    (oracles.compat_every_column): the same bits, iterations and minimizer."""
    value = ct.compatibility_constant(g, s, l_budget)
    phi2, beta, iters = oracles.compat_every_column(g, s, l_budget)
    assert value.phi2.hex() == phi2.hex()
    assert value.iterations == iters
    assert value.minimizer_beta.tobytes() == beta.tobytes()


@pytest.mark.parametrize("seed", [2026, 7])
def test_compat_over_distinct_columns_is_bitwise_the_same(seed):
    law = plan_parameters(3, 10**4).law()
    for t in range(10):
        g = sample_matrix(EnsembleSpec(law, 3, 10**4,
                                       rng.mix_seed(seed, t))).entries
        # about a dozen classes stand for the 9,999 off-support columns
        assert column_classes(g[:, 1:])[0].size < 100
        same_as_every_column(g, (0,))
    same_as_every_column(g, (0, 1))


def test_compat_distinct_columns_small_cases():
    gen = np.random.default_rng(8)
    g = gen.standard_normal((3, 64))  # every class a single column
    assert column_classes(g)[0].size == 64
    for s, l_budget in (((0,), 1.0), ((17,), 1.7), ((3, 40), 1.0)):
        same_as_every_column(g, s, l_budget)
    for j in range(3):  # at j = 2 the off-support columns form one class
        same_as_every_column(DUP, (j,))
    tiled = gen.standard_normal((3, 6))[:, gen.integers(0, 6, 40)]
    same_as_every_column(tiled, (0, 5))
    # no off-support column: Frank-Wolfe moves over the support only
    same_as_every_column(g[:, :1], (0,))
    same_as_every_column(g[:, :2], (0, 1))


def test_compat_tie_goes_to_the_smallest_column():
    # at iteration 0 r = a_0 - a_1 = e_1, so columns b, a and c (in index
    # order; c, a, b in sorted order) tie at |grad| = 6: the first vertex
    # must be the first column of b's class, as over every column
    b, a, c = (3.0, 0.5, -0.2), (3.0, -0.7, 0.4), (-3.0, 0.1, 0.9)
    g = np.array([(2.0, 1.0, 1.0), (1.0, 1.0, 1.0), b, a, b, c, a]).T
    grad = np.abs(g[:, 1:].T @ (g[:, 0] - g[:, 1]))
    assert np.count_nonzero(grad == grad.max()) == 5
    assert column_classes(g[:, 1:])[0].tolist() == [0, 1, 2, 4]
    same_as_every_column(g, (0,))


def test_compat_guards():
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (), 1.0)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (0, 1, 2), 1.0)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (9,), 1.0)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (0,), 0.5)
    for l_budget in (math.nan, math.inf):  # Frank-Wolfe divided by zero
        with pytest.raises(ValueError, match="L must be finite"):
            ct.compatibility_constant(np.eye(4), (0,), l_budget)


def test_compat_iteration_cap_raises(monkeypatch, tmp_path, capsys):
    # a 3x6 Gaussian draw takes 63 iterations; a cap of 1 stops it with the
    # simplex's cap error, which the CLI reports as an error line
    mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 3, 6, 0))
    path = str(tmp_path / "g.txt")
    write_matrix_text(mat, path)
    monkeypatch.setattr(ct, "FW_ITERATION_CAP", 1)
    with pytest.raises(simplex.IterationLimitError,
                       match=r"Frank-Wolfe gap .* after 1 iterations"):
        ct.compatibility_constant(mat, (0,), 1.0)
    assert cli.run(["compat", "--matrix", path, "--s", "1", "--L", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Frank-Wolfe gap ")


def test_compat_larger_budget_never_increases():
    gen = np.random.default_rng(12)
    g = gen.standard_normal((3, 6))
    lo = ct.compatibility_constant(g, (1,), 1.0).phi2
    hi = ct.compatibility_constant(g, (1,), 3.0).phi2
    assert hi <= lo + 1e-7
