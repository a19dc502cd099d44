import math
import warnings

import numpy as np
import pytest

from spikybp import certify as ct, rng
from spikybp.ensemble import EnsembleSpec, ScalarLaw, sample_matrix
from spikybp.recovery import SparseVector, basis_pursuit, certify_uniqueness

import oracles

DUP = np.array([[1.0, 1.0, 0.3], [0.5, 0.5, -0.2]])  # columns 1 and 2 equal


def target(dim, j, val=1.0):
    return SparseVector(dim, (j,), (val,))


# ---------------------------------------------------- failure certificates

def test_identity_has_no_certificate():
    assert ct.er_failure_certificate(np.eye(4), target(4, 0)) is None


def test_duplicate_column_certificate():
    cert = ct.er_failure_certificate(DUP, target(3, 0))
    assert cert is not None
    assert cert.target_index_set == (0,)
    w = cert.witness
    assert abs(w[0]) <= 1e-12  # witness avoids the target support
    assert np.sum(np.abs(w)) <= 1.0 + 1e-8
    y = DUP @ target(3, 0).to_dense()
    assert np.max(np.abs(DUP @ w - y)) <= 1e-8 * (1.0 + np.max(np.abs(y)))
    assert cert.l1_witness == pytest.approx(np.sum(np.abs(w)))
    assert cert.residual <= 1e-8


def test_certificate_respects_sign_and_scale_of_target():
    cert = ct.er_failure_certificate(DUP, target(3, 1, -1.0))
    assert cert is not None
    assert abs(cert.witness[1]) <= 1e-12
    assert cert.witness[0] == pytest.approx(-1.0, abs=1e-8)


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


# --------------------------------------------------------------- NSP check

def er1_against_oracle(g):
    """er_check_nsp(g, 1), run with warnings as errors, against the HiGHS
    representation norms r: worst_value = 1 / (1 + min r) and the verdict
    applies the strict margin rule to that value."""
    r = oracles.er1_representation_norms(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = ct.er_check_nsp(g, 1)
    expect = 1.0 / (1.0 + r.min())
    assert verdict.worst_value == pytest.approx(expect, abs=1e-9)
    assert verdict.holds == (expect < 0.5 - ct.STRICT_MARGIN_TOL)
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


def test_nsp_guards():
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.eye(3), 3)
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.zeros((1, 5000)), 1)
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.zeros((1, 300)), 2)
    with pytest.raises(ValueError):
        ct.er_check_nsp(np.zeros((2, 1)), 2)


def test_nsp_agrees_with_per_target_uniqueness():
    # ER(1) <=> every +-e_j is the unique BP minimizer of its own data
    for seed in range(6):
        mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 12,
                                         seed=seed))
        g = mat.entries
        verdict = ct.er_check_nsp(g, 1)
        all_unique = True
        for j in range(12):
            for s in (1.0, -1.0):
                y = s * g[:, j]
                res = certify_uniqueness(g, y, basis_pursuit(g, y))
                expect = np.zeros(12)
                expect[j] = s
                ok = (res.unique == "unique"
                      and np.allclose(res.minimizer, expect, atol=1e-7))
                all_unique = all_unique and ok
        assert verdict.holds == all_unique, f"seed {seed}"


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


# ---------------------------------------------------------------- widths

def test_width_bound_check_diagonal():
    n = 4
    big_r = 40.0
    vectors = big_r * np.eye(n)
    bound, sampled, ok = ct.width_bound_check(vectors, big_r, n_dirs=2000)
    assert bound == pytest.approx(big_r / math.sqrt(n) - math.sqrt(n))
    # max_i R |u_i| >= R/sqrt(n) pointwise, so the probe must clear it
    assert ok and sampled >= bound - 1e-9


def test_width_bound_check_rejects_large_perturbation():
    with pytest.raises(ValueError):
        ct.width_bound_check(3.0 * np.eye(2) + 1.5, 3.0)


def test_width_bound_check_deterministic():
    v = 25.0 * np.eye(3) + 0.5
    a = ct.width_bound_check(v, 25.0, n_dirs=500, seed=4)
    b = ct.width_bound_check(v, 25.0, n_dirs=500, seed=4)
    assert a == b


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


def test_compat_matches_grid_and_slsqp_oracles():
    gen = np.random.default_rng(3)
    for l_budget in (1.0, 1.7):
        for _ in range(4):
            g = gen.standard_normal((2, 3))
            mine = ct.compatibility_constant(g, (0,), l_budget,
                                             gap_tol=1e-9).phi2
            grid_min, slsqp_min, grid_err = oracles.compat_oracle(
                g, 0, (1.0, -1.0), l_budget)
            best = min(grid_min, slsqp_min)
            assert mine <= best + 1e-6
            assert mine >= best - grid_err - 1e-6


def test_compat_guards():
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (), 1.0)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (0, 1, 2), 1.0)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (9,), 1.0)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (0,), 0.5)
    with pytest.raises(ValueError):
        ct.compatibility_constant(np.eye(4), (0,), 1.0, gap_tol=0.0)


def test_compat_larger_budget_never_increases():
    gen = np.random.default_rng(12)
    g = gen.standard_normal((3, 6))
    lo = ct.compatibility_constant(g, (1,), 1.0).phi2
    hi = ct.compatibility_constant(g, (1,), 3.0).phi2
    assert hi <= lo + 1e-7
