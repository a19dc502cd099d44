import math

import numpy as np
import pytest

from spikybp import ensemble as ens, rng
from spikybp.ensemble import (EnsembleSpec, MeasurementMatrix, ScalarLaw,
                              empirical_moment, evaluate_plan,
                              fourth_moment_linear_form,
                              max_rows_theorem_a_prime, moment_lp_norm,
                              moment_ratio, normalized_fourth_moment,
                              plan_parameters, read_matrix_text,
                              sample_matrix, sample_spike_mask,
                              small_ball_paley_zygmund, write_matrix_text)

import oracles

REL = 5e-15


def close(a, b, rel=REL):
    return abs(a - b) <= rel * (1.0 + abs(b))


# ------------------------------------------------------------- scalar law

def test_law_constructors_and_guards():
    law = ScalarLaw.spiky(0.25, 3.0)
    assert law.kind == ens.SPIKY and law.delta == 0.25 and law.big_r == 3.0
    assert ScalarLaw.rademacher().kind == ens.RADEMACHER
    assert ScalarLaw.gaussian().kind == ens.GAUSSIAN
    with pytest.raises(ValueError):
        ScalarLaw.spiky(-0.1, 3.0)
    with pytest.raises(ValueError):
        ScalarLaw.spiky(1.5, 3.0)
    with pytest.raises(ValueError):
        ScalarLaw.spiky(0.1, -1.0)
    for bad in (math.nan, math.inf):  # gave a NaN moment
        with pytest.raises(ValueError, match="nonnegative and finite"):
            ScalarLaw.spiky(0.1, bad)
    # R = 0 collapses to Rademacher; allowed on purpose
    assert moment_lp_norm(ScalarLaw.spiky(0.3, 0.0), 6.0) == 1.0


def test_moment_lp_norm_oracle_values():
    # mpmath at 50 digits; the Gaussian moment by its closed form and by
    # quadrature
    for delta, big_r, p in ((0.25, 3.0, 4.0), (1e-4, 9.0, 7.5)):
        assert close(moment_lp_norm(ScalarLaw.spiky(delta, big_r), p),
                     oracles.mp_spiky_lp(delta, big_r, p))
    for p in (3.0, 4.0):
        got = moment_lp_norm(ScalarLaw.gaussian(), p)
        assert close(got, oracles.mp_gaussian_lp(p))
        assert close(got, oracles.quad_gaussian_lp(p))
    assert close(moment_lp_norm(ScalarLaw.gaussian(), 8.38361309715754),
                 oracles.mp_gaussian_lp(8.38361309715754))
    assert moment_lp_norm(ScalarLaw.rademacher(), 11.0) == 1.0
    assert moment_lp_norm(ScalarLaw.gaussian(), 2.0) == pytest.approx(1.0,
                                                                      abs=1e-15)


def test_moment_lp_norm_no_overflow_at_large_r():
    # (1+R)^p ~ 1e60 as a float would square fine but the log-space path
    # must survive far beyond that
    v = moment_lp_norm(ScalarLaw.spiky(1e-8, 1e12), 40.0)
    assert np.isfinite(v) and v > 1.0


def test_moment_guards():
    with pytest.raises(ValueError):
        moment_lp_norm(ScalarLaw.gaussian(), 0.5)
    with pytest.raises(ValueError):
        moment_ratio(ScalarLaw.gaussian(), 1.5)
    # a NaN or infinite p gave a NaN moment
    for bad in (math.nan, math.inf):
        for law in (ScalarLaw.gaussian(), ScalarLaw.rademacher(),
                    ScalarLaw.spiky(0.1, 3.0)):
            with pytest.raises(ValueError, match="p must be finite"):
                moment_lp_norm(law, bad)
            with pytest.raises(ValueError, match="p must be finite"):
                moment_ratio(law, bad)


def test_normalized_fourth_moment_plan_value():
    # ((1-d) + d(1+R)^4) / ((1-d) + d(1+R)^2)^2 at the (3, 1e4) plan
    law = plan_parameters(3, 10**4).law()
    assert close(normalized_fourth_moment(law), 2.622554874568181, rel=1e-13)
    assert close(normalized_fourth_moment(ScalarLaw.gaussian()), 3.0,
                 rel=1e-12)
    assert close(normalized_fourth_moment(ScalarLaw.rademacher()), 1.0)


# ---------------------------------------------------------------- planner

def test_plan_parameters_3_10000():
    plan = plan_parameters(3, 10**4)
    assert close(plan.delta, 0.0003295836866004329)
    assert close(plan.p, 8.383613097157538)
    assert close(plan.big_r, 7.534488188803754)
    assert plan.feasible
    assert [c.satisfied for c in plan.conditions] == [True] * 4
    assert [c.name for c in plan.conditions] == ["C1", "C2", "C3", "C4"]


def test_plan_parameters_3_5000():
    plan = plan_parameters(3, 5000)
    assert close(plan.delta, 0.0006591673732008658)
    assert close(plan.p, 7.752683343586081)
    assert close(plan.big_r, 7.162029826308758)
    assert plan.feasible


@pytest.mark.parametrize("n_rows, n_cols", [
    (3, 10**4), (3, 5000), (5, 2000), (12, 10**4), (40, 10**4), (100, 200)])
def test_plan_parameters_match_mpmath(n_rows, n_cols):
    plan = plan_parameters(n_rows, n_cols)
    want = oracles.mp_plan(n_rows, n_cols)
    assert (plan.delta, plan.p, plan.big_r) == pytest.approx(want, rel=1e-14)


def test_plan_infeasible_cells():
    plan = plan_parameters(100, 200)
    assert not plan.feasible
    assert plan.first_violated.name == "C1"
    # C1 and C2 hold at (3, 4000) but the tail is too heavy for C3
    plan = plan_parameters(3, 4000)
    assert not plan.feasible
    assert plan.first_violated.name == "C3"


def test_evaluate_plan_guards():
    with pytest.raises(ValueError):
        evaluate_plan(1, 100, 0.1, 5.0)
    with pytest.raises(ValueError):
        evaluate_plan(10, 10, 0.1, 5.0)


def test_plan_law_roundtrip():
    plan = plan_parameters(3, 10**4)
    law = plan.law()
    assert law.kind == ens.SPIKY
    assert law.delta == plan.delta and law.big_r == plan.big_r


def test_max_rows_theorem_a_prime():
    p = 8.383613097157538
    assert close(max_rows_theorem_a_prime(10**4, p),
                 oracles.mp_max_rows(10**4, p), rel=1e-13)
    with pytest.raises(ValueError):
        max_rows_theorem_a_prime(1, 4.0)
    with pytest.raises(ValueError):
        max_rows_theorem_a_prime(100, 2.0)


# --------------------------------------------------------------- sampling

def test_sample_matrix_shapes_and_scale():
    spec = EnsembleSpec(ScalarLaw.spiky(0.2, 4.0), 3, 50, seed=11)
    mat = sample_matrix(spec)
    assert mat.entries.shape == (3, 50)
    assert mat.row_scale == pytest.approx(1.0 / math.sqrt(3.0))
    # entries carry the scale: times sqrt(N) they are the normalized draws
    bare = (ens._raw_draws(spec.law, rng.entry_words(11, 3, 50))
            / moment_lp_norm(spec.law, 2.0))
    assert np.allclose(mat.entries * math.sqrt(3.0), bare)


def test_sample_matrix_deterministic():
    spec = EnsembleSpec(ScalarLaw.gaussian(), 4, 9, seed=77)
    assert np.array_equal(sample_matrix(spec).entries,
                          sample_matrix(spec).entries)


def test_spiky_entries_take_exactly_four_values():
    law = ScalarLaw.spiky(0.3, 4.0)
    mat = sample_matrix(EnsembleSpec(law, 5, 4000, seed=2))
    nu = math.sqrt(0.7 + 0.3 * 25.0)  # L2 norm of the raw draw
    bare = mat.entries * math.sqrt(5.0)
    vals = set(np.round(np.unique(np.abs(bare)) * nu, 12))
    assert vals == {1.0, 5.0}


def test_mask_agrees_with_entry_magnitude():
    spec = EnsembleSpec(ScalarLaw.spiky(0.1, 6.0), 4, 3000, seed=5)
    mat = sample_matrix(spec)
    mask = sample_spike_mask(spec)
    assert mask.shape == (4, 3000) and mask.dtype == bool
    # spikes are exactly the entries of inflated magnitude
    mid = mat.row_scale * (2.0 + 6.0) / 2.0 / math.sqrt(0.9 + 0.1 * 49.0)
    assert np.array_equal(mask, np.abs(mat.entries) > mid)
    rate = mask.mean()
    assert abs(rate - 0.1) < 5.0 * math.sqrt(0.1 * 0.9 / mask.size)
    # laws without spikes have an all-clean mask
    for law in (ScalarLaw.gaussian(), ScalarLaw.rademacher(),
                ScalarLaw.spiky(0.0, 6.0)):
        mask = sample_spike_mask(EnsembleSpec(law, 4, 30, seed=5))
        assert mask.shape == (4, 30) and mask.dtype == bool
        assert not mask.any()


def test_rademacher_and_gaussian_matrices():
    r = sample_matrix(EnsembleSpec(ScalarLaw.rademacher(), 3, 100, seed=1))
    assert set(np.unique(r.entries * math.sqrt(3.0))) == {-1.0, 1.0}
    g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 30, 300, seed=1))
    bare = g.entries * math.sqrt(30.0)
    assert abs(bare.mean()) < 5.0 / math.sqrt(bare.size)
    assert abs(bare.std() - 1.0) < 0.02


def test_empirical_moment_tracks_formula():
    law = ScalarLaw.spiky(0.05, 3.0)
    est = empirical_moment(law, 4.0, 200000, seed=9)
    assert abs(est / moment_ratio(law, 4.0) - 1.0) < 0.02
    est2 = empirical_moment(ScalarLaw.gaussian(), 2.0, 200000, seed=3)
    assert abs(est2 - 1.0) < 0.01


# ------------------------------------------------- moments of linear forms

def test_fourth_moment_linear_form_enumeration():
    t6 = np.zeros(40)
    t6[[0, 7, 11, 20, 33, 39]] = [0.6, -0.3, 0.2, 0.55, -0.05, 0.1]
    cases = [
        (ScalarLaw.spiky(0.2, 4.0), 2.114856896551724),
        (ScalarLaw.rademacher(), 1.48225),
        (ScalarLaw.gaussian(), 1.944075),
    ]
    for law, expect in cases:
        assert close(fourth_moment_linear_form(law, t6), expect, rel=1e-10)


def test_fourth_moment_single_coordinate_is_m4():
    law = ScalarLaw.spiky(0.01, 5.0)
    t = np.array([0.0, 2.0, 0.0])
    # <X, t> = 2 x, so E = 16 m4
    assert close(fourth_moment_linear_form(law, t),
                 16.0 * normalized_fourth_moment(law), rel=1e-12)


def test_small_ball_paley_zygmund_formula():
    law = ScalarLaw.spiky(0.1, 2.0)
    t = np.array([1.0, -2.0, 0.5])
    theta = 0.6
    m2 = float(t @ t)
    m4 = fourth_moment_linear_form(law, t)
    expect = (1.0 - theta**2) ** 2 * m2**2 / m4
    assert close(small_ball_paley_zygmund(law, t, theta), expect, rel=1e-12)
    with pytest.raises(ValueError):
        small_ball_paley_zygmund(law, t, 0.0)
    with pytest.raises(ValueError):
        small_ball_paley_zygmund(law, t, 1.0)


# ------------------------------------------------------------------ files

def test_matrix_file_roundtrip(tmp_path):
    mat = sample_matrix(EnsembleSpec(ScalarLaw.spiky(0.2, 7.0), 3, 37,
                                     seed=13))
    path = tmp_path / "m.txt"
    write_matrix_text(mat, path)
    back = read_matrix_text(path)
    assert back.n_rows == 3 and back.n_cols == 37
    assert back.row_scale == mat.row_scale
    assert np.array_equal(back.entries, mat.entries)


def test_matrix_file_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    lines = ["2 3 1.0", "1 0 0", "0 1 0", "0 0 1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_matrix_text(path)


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_matrix_file_rejects_nonfinite_scale(tmp_path, scale):
    path = tmp_path / "bad.txt"
    path.write_text(f"2 2 {scale}\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="positive and finite"):
        read_matrix_text(path)


def test_measurement_matrix_validation():
    with pytest.raises(ValueError):
        MeasurementMatrix(2, 2, np.eye(3), 1.0)
