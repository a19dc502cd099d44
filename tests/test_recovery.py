import math
import time

import numpy as np
import pytest

from spikybp import cli, rng, simplex
from spikybp import recovery as rec
from spikybp.ensemble import (EnsembleSpec, ScalarLaw, plan_parameters,
                              sample_matrix, write_matrix_text)
from spikybp.recovery import (NOT_UNIQUE, UNIQUE, UNKNOWN, NoSolutionError,
                              RecoveryResult, SparseVector, basis_pursuit,
                              certify_uniqueness, column_classes,
                              l0_brute_force,
                              read_vector_text, write_vector_text)

import oracles


def assert_valid_witness(g, y, res):
    w = res.witness_alt
    assert w is not None
    assert np.allclose(g @ w, y, atol=1e-7)
    assert np.sum(np.abs(w)) <= res.l1_value + 1e-6
    assert np.max(np.abs(w - res.minimizer)) > 1e-7


# ------------------------------------------------------------ SparseVector

def test_sparse_vector_normalizes_order():
    v = SparseVector(5, (3, 1), (2.0, -1.0))
    assert v.support == (1, 3)
    assert v.values == (-1.0, 2.0)


def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseVector(5, (1, 1), (1.0, 2.0))  # repeated index
    with pytest.raises(ValueError):
        SparseVector(5, (7,), (1.0,))  # out of range
    with pytest.raises(ValueError):
        SparseVector(5, (1,), (0.0,))  # stored zero
    with pytest.raises(ValueError):
        SparseVector(5, (1, 2), (1.0,))  # length mismatch
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            SparseVector(5, (1, 2), (1.0, bad))  # non-finite


def test_dense_roundtrip_and_l1():
    v = SparseVector(6, (0, 4), (1.5, -0.5))
    d = v.to_dense()
    assert d.tolist() == [1.5, 0, 0, 0, -0.5, 0]
    assert v.l1() == 2.0
    assert SparseVector.from_dense(d) == v
    pruned = SparseVector.from_dense([1.0, 1e-12, 0.0], tol=1e-9)
    assert pruned.support == (0,)


def test_format_parse_roundtrip():
    v = SparseVector(10, (2, 7), (0.1, -3.75))
    assert SparseVector.parse(v.format()) == v
    empty = SparseVector(4, (), ())
    assert empty.format() == "4;"
    assert SparseVector.parse("4;") == empty
    # seventeen significant digits survive the trip exactly
    w = SparseVector(3, (1,), (0.1234567890123456789,))
    assert SparseVector.parse(w.format()) == w


def test_parse_rejects_garbage():
    for text in ("", "5", "5; 1:", "5; a:1", "5; 9:1", "x; 1:2",
                 "3; 0:nan", "3; 0:inf", "3; 1:1,2:-inf"):
        with pytest.raises(ValueError):
            SparseVector.parse(text)


# ----------------------------------------------------------- basis pursuit

def test_identity_recovery_unique():
    g = np.eye(4)
    y = np.array([0.0, 2.0, 0.0, 0.0])
    res = basis_pursuit(g, y)
    assert res.l1_value == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(res.minimizer, y, atol=1e-10)
    assert res.unique == UNKNOWN
    res = certify_uniqueness(g, y, res)
    assert res.unique == UNIQUE
    assert res.witness_alt is None


def test_duplicate_columns_not_unique():
    g = np.array([[1.0, 1.0], [2.0, 2.0]])
    y = np.array([1.0, 2.0])
    res = certify_uniqueness(g, y, basis_pursuit(g, y))
    assert res.l1_value == pytest.approx(1.0, abs=1e-10)
    assert res.unique == NOT_UNIQUE
    assert_valid_witness(g, y, res)


def test_non_vertex_minimizer_on_duplicate_columns(lp_count):
    # x* splits its mass over two equal columns: Gamma_S is rank deficient,
    # so the verdict needs no LP and the witness moves along its null vector
    g = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    y = g[:, 0].copy()
    res = certify_uniqueness(g, y, RecoveryResult(np.array([0.5, 0.5, 0.0]), 1.0))
    assert res.unique == NOT_UNIQUE
    assert_valid_witness(g, y, res)
    assert len(lp_count) == 0


def test_no_solution_raises():
    g = np.zeros((2, 3))
    with pytest.raises(NoSolutionError):
        basis_pursuit(g, np.array([1.0, 0.0]))


def test_y_length_guard():
    with pytest.raises(ValueError):
        basis_pursuit(np.eye(3), np.ones(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_y_is_rejected(bad):
    # every (Gamma, y) entry point refuses it; l0 used to return the zero
    # vector for (inf, 1, 2) and basis pursuit failed inside the LP
    g = np.random.default_rng(5).standard_normal((3, 50))
    y = np.array([bad, 1.0, 2.0])
    good = basis_pursuit(g, np.array([0.0, 1.0, 2.0]))
    calls = [lambda: basis_pursuit(g, y),
             lambda: certify_uniqueness(g, y, good),
             lambda: l0_brute_force(g, y, 1),
             lambda: l0_brute_force(g, y, 2)]
    for call in calls:
        with pytest.raises(ValueError, match="y must be finite"):
            call()


def highs_bp_value(g, y):
    status, value = oracles.lp_scipy(np.ones(2 * g.shape[1]),
                                     np.hstack([g, -g]), y,
                                     np.zeros(2 * g.shape[1]),
                                     np.full(2 * g.shape[1], np.inf))
    assert status == "optimal"
    return value


def assert_sifted_optimum(g, y, res, final):
    """res is a vertex solution of Gamma t = y, and the duals of the last
    round pass the full LP's optimality test on every column."""
    assert np.abs(g @ res.minimizer - y).max() <= 1e-9 * (1 + np.abs(y).max())
    assert np.count_nonzero(res.minimizer) <= g.shape[0]
    assert res.l1_value == pytest.approx(np.abs(res.minimizer).sum(),
                                         abs=1e-12)
    assert np.abs(g.T @ final.dual).max() <= 1.0 + simplex._DUAL_TOL


def test_sifted_value_matches_highs(lp_count):
    draws = []
    for t in range(3):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 8, 1000,
                                       rng.mix_seed(41, t))).entries
        draws.append((g[:, 1:], g[:, 0]))
        draws.append((g, g[:, :3] @ np.array([0.5, -2.0, 1.0])))
    plan = plan_parameters(3, 2000)
    for t in range(3):
        g = sample_matrix(EnsembleSpec(plan.law(), 3, 2000,
                                       rng.mix_seed(41, t))).entries
        draws.append((g[:, 1:], g[:, 0]))
        draws.append((g, np.random.default_rng(t).standard_normal(3)))
    for g, y in draws:
        assert g.shape[1] > rec.SIFT_COLUMNS
        lp_count.clear()
        res = basis_pursuit(g, y)
        assert res.l1_value == pytest.approx(highs_bp_value(g, y), abs=1e-9)
        # every round solved a working set, never the whole LP
        assert all(s.x.size < 2 * g.shape[1] for s in lp_count)
        assert_sifted_optimum(g, y, res, lp_count[-1])


def test_sifted_ties_give_the_dense_value():
    # the tie shapes of spiky rows with R = 4 at n = 10^4: with columns
    # equal to +-Gamma e1 the value is exactly 1 and the LPs are degenerate
    for n_rows in (12, 20, 24):
        plan = plan_parameters(n_rows, 10_000)
        spec = EnsembleSpec(ScalarLaw.spiky(plan.delta, 4.0), n_rows, 10_000,
                            rng.mix_seed(7, 5))
        g = sample_matrix(spec).entries
        g[:, 4000] = g[:, 0]
        g[:, 7000] = -g[:, 0]
        g, y = g[:, 1:], g[:, 0]
        dense = simplex.solve(simplex.LinearProgram(
            np.ones(2 * g.shape[1]), np.hstack([g, -g]), y))
        res = basis_pursuit(g, y)
        assert res.l1_value == pytest.approx(dense.objective_value, abs=1e-9)
        assert res.l1_value == pytest.approx(1.0, abs=1e-9)
        assert np.abs(g @ res.minimizer - y).max() <= 1e-9
        assert np.count_nonzero(res.minimizer) <= n_rows


def test_warm_started_rounds_settle_a_planted_tie(lp_count):
    # the 24 x 10^4 tie of test_sifted_ties_give_the_dense_value: every
    # round restarted from the artificials took 22 rounds and 33,359 pivots;
    # a crash basis and warm-started rounds take 9 rounds and 2,696
    plan = plan_parameters(24, 10_000)
    spec = EnsembleSpec(ScalarLaw.spiky(plan.delta, 4.0), 24, 10_000,
                        rng.mix_seed(7, 5))
    g = sample_matrix(spec).entries
    g[:, 4000] = g[:, 0]
    g[:, 7000] = -g[:, 0]
    res = basis_pursuit(g[:, 1:], g[:, 0])
    assert res.l1_value == pytest.approx(1.0, abs=1e-9)
    assert len(lp_count) <= 12
    assert sum(s.iterations for s in lp_count) <= 4000
    assert all(s.phase1_iterations == 0 for s in lp_count)


def test_sifting_prices_out_of_an_infeasible_working_set(lp_count):
    # the first working set holds the 256 largest of 300 multiples of
    # (1, 1), which cannot make y = (1, 0); only column 300 = (0, 1), with
    # a'y = 0, completes it: y = s (1, 1) / s - (0, 1), least l1 norm
    # 1 + 1/s at the largest multiple s
    scale = 1.0 + np.arange(300) / 300.0
    g = np.column_stack([np.outer([1.0, 1.0], scale), [0.0, 1.0]])
    y = np.array([1.0, 0.0])
    res = basis_pursuit(g, y)
    # rank 1 < m: no crash basis, so the first round runs phase 1 from
    # the artificials, and the next resumes it from that round's basis
    assert lp_count[0].status == simplex.INFEASIBLE
    assert lp_count[0].phase1_iterations > 0
    assert lp_count[-1].status == simplex.OPTIMAL
    assert res.l1_value == pytest.approx(1.0 + 1.0 / scale[-1], abs=1e-12)
    assert res.l1_value == pytest.approx(highs_bp_value(g, y), abs=1e-9)
    assert_sifted_optimum(g, y, res, lp_count[-1])


def test_sifting_raises_off_the_range(lp_count):
    # rank 2 in 3 rows and 400 columns: no round can make y, and the last
    # round's phase-1 duals price out no column
    g = np.random.default_rng(8).standard_normal((3, 400))
    g[2] = g[0] + g[1]
    with pytest.raises(NoSolutionError):
        basis_pursuit(g, np.array([0.0, 0.0, 1.0]))
    assert lp_count[-1].status == simplex.INFEASIBLE
    assert np.abs(g.T @ lp_count[-1].dual).max() <= simplex._DUAL_TOL


def test_gaussian_one_sparse_recovery():
    # N = 8 rows are plenty for 1-sparse targets; check sign handling too
    mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 8, 20, seed=3))
    g = mat.entries
    for j, s in ((0, 1.0), (7, -1.0), (19, 1.0)):
        y = s * g[:, j]
        res = certify_uniqueness(g, y, basis_pursuit(g, y))
        assert res.unique == UNIQUE, (j, s)
        expect = np.zeros(20)
        expect[j] = s
        assert np.allclose(res.minimizer, expect, atol=1e-7)


def test_small_nsp_margin_draws_are_unique():
    # draws where a fixed face-width tolerance used to report 38/40 targets
    # not unique although ER(1) holds with margins of 0.0029 and 0.0039
    for seed, unit in ((1009, 1), (105, 4)):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 10, 20,
                                       rng.mix_seed(seed, unit))).entries
        for j in range(20):
            for s in (1.0, -1.0):
                y = s * g[:, j]
                res = certify_uniqueness(g, y, basis_pursuit(g, y))
                assert res.unique == UNIQUE, (seed, unit, j, s)


def test_uniqueness_agrees_with_er1_oracle(monkeypatch):
    # +-e_j is the unique minimizer iff the least l1 representation r_j of
    # column j by the others exceeds 1; at x* = e_j the strict-dual value is
    # 1 / r_j, so UNIQUENESS_TOL flips the verdict at 1 - 1/r_j.  These draws
    # fail ER(1) at 5 columns, so both verdicts occur.
    failing = 0
    for t in range(3):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 20,
                                       rng.mix_seed(2026, t))).entries
        r = oracles.er1_representation_norms(g)
        failing += int(np.sum(r <= 1.0))
        for j in range(20):
            for s in (1.0, -1.0):
                y = s * g[:, j]
                e = np.zeros(20)
                e[j] = s
                bp = certify_uniqueness(g, y, basis_pursuit(g, y))
                recovered = (bp.unique == UNIQUE
                             and np.allclose(bp.minimizer, e, atol=1e-7))
                at_e = certify_uniqueness(g, y, RecoveryResult(e, 1.0))
                assert recovered == (r[j] > 1.0), (t, j, s)
                assert (at_e.unique == UNIQUE) == (r[j] > 1.0), (t, j, s)
                for res in (bp, at_e):
                    if res.unique == NOT_UNIQUE:
                        assert_valid_witness(g, y, res)
                if r[j] > 1.0:
                    margin = 1.0 - 1.0 / r[j]
                    for scale, verdict in ((0.9, UNIQUE), (1.1, NOT_UNIQUE)):
                        with monkeypatch.context() as m:
                            m.setattr(rec, "UNIQUENESS_TOL", scale * margin)
                            assert certify_uniqueness(
                                g, y, at_e).unique == verdict
    assert failing == 5


def test_uniqueness_matches_the_strict_dual_oracle(monkeypatch):
    # certify_uniqueness solves the strict-dual LP as basis pursuit on the
    # system reduced by Gamma_S's QR; HiGHS solves it with z_S free and a
    # budget row.  Supports of every size 1..m, k = m (no kernel rows) and
    # S = every column (no z_C, so NoSolutionError, value 0, UNIQUE)
    monkeypatch.setattr(rec, "UNIQUENESS_TOL", 0.0)
    gen = np.random.default_rng(15)
    verdicts = {UNIQUE: 0, NOT_UNIQUE: 0}
    for t in range(4):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 14,
                                       rng.mix_seed(2026, t))).entries
        cases = [(g, gen.choice(14, k, replace=False))
                 for k in range(1, 7) for _ in range(3)]
        cases.append((g[:, :5], np.arange(5)))
        for mat, s_idx in cases:
            x = np.zeros(mat.shape[1])
            x[s_idx] = gen.choice([-1.0, 1.0], s_idx.size) * gen.uniform(
                0.5, 2.0, s_idx.size)
            y = mat @ x
            value = oracles.strict_dual_value(mat, s_idx, np.sign(x[s_idx]))
            res = certify_uniqueness(mat, y, RecoveryResult(x, np.abs(x).sum()))
            assert res.unique == (UNIQUE if value < 1.0 else NOT_UNIQUE)
            if res.unique == NOT_UNIQUE:
                assert_valid_witness(mat, y, res)
            verdicts[res.unique] += 1
    assert min(verdicts.values()) > 0
    # y = 0: the minimizer is 0, S is empty and the verdict is UNIQUE
    g = np.random.default_rng(3).standard_normal((4, 9))
    res = certify_uniqueness(g, np.zeros(4), basis_pursuit(g, np.zeros(4)))
    assert oracles.strict_dual_value(g, [], []) == 0.0
    assert res.unique == UNIQUE and not res.minimizer.any()


def test_uniqueness_bound_decides_without_an_lp(monkeypatch):
    # ||c||_inf < 1 - tol bounds the strict-dual value, so these targets
    # need no kernel LP; HiGHS's strict-dual value agrees with the verdict
    g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 10, 20, 2)).entries

    def no_lp(a, c):
        raise AssertionError("kernel LP solved")

    monkeypatch.setattr(rec, "_kernel_lp", no_lp)
    for j in range(5):
        for s in (1.0, -1.0):
            y = s * g[:, j]
            assert certify_uniqueness(g, y, basis_pursuit(g, y)).unique == UNIQUE
            assert (oracles.strict_dual_value(g, [j], [s])
                    < 1.0 - rec.UNIQUENESS_TOL)


def test_uniqueness_lp_decides_past_the_bound(monkeypatch):
    # ||c||_inf >= 1 - tol: one kernel LP runs and gives HiGHS's verdict,
    # UNIQUE (the bound is loose there) or NOT_UNIQUE
    kernel_lp, bounds = rec._kernel_lp, []

    def counted(a, c):
        bounds.append(float(np.abs(c).max()))
        return kernel_lp(a, c)

    monkeypatch.setattr(rec, "_kernel_lp", counted)
    cases = []
    for seed, j in ((0, 17), (2, 9), (2, 11)):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 10, 20,
                                       seed)).entries
        x = np.zeros(20)
        x[j] = 1.0
        cases.append((g, x))
    g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 14, 0)).entries
    for s_idx in ([0, 1, 2], [0, 5, 9], [2, 3, 4, 5, 6]):
        x = np.zeros(14)
        x[s_idx] = [1.0, -0.5, 2.0, 0.75, -1.25][:len(s_idx)]
        cases.append((g, x))
    verdicts = []
    for g, x in cases:
        bounds.clear()
        res = certify_uniqueness(g, g @ x, RecoveryResult(x, np.abs(x).sum()))
        assert len(bounds) == 1 and bounds[0] >= 1.0 - rec.UNIQUENESS_TOL
        s_idx = np.flatnonzero(x)
        value = oracles.strict_dual_value(g, s_idx, np.sign(x[s_idx]))
        assert res.unique == (UNIQUE if value < 1.0 - rec.UNIQUENESS_TOL
                              else NOT_UNIQUE)
        verdicts.append(res.unique)
    assert verdicts == [UNIQUE] * 3 + [NOT_UNIQUE] * 3


def test_uniqueness_solves_one_lp(lp_count, tmp_path, capsys):
    mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 10, 20, seed=4))
    y = mat.entries[:, 3].copy()
    res = basis_pursuit(mat, y)
    lp_count.clear()
    assert certify_uniqueness(mat, y, res).unique == UNIQUE
    assert len(lp_count) <= 1
    # at 3 x 2000: one sifting round of basis pursuit, then one round of
    # the strict-dual LP, itself basis pursuit: neither LP is wider than
    # the split first working set
    path = str(tmp_path / "m.txt")
    assert cli.run(["sample", "--N", "3", "--n", "2000", "--seed", "5",
                    "--force", "--out", path]) == 0
    lp_count.clear()
    t0 = time.perf_counter()
    assert cli.run(["recover", "--matrix", path, "--target", "e1",
                    "--unique"]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert len(lp_count) <= 2
    assert all(s.x.size <= 2 * rec.SIFT_COLUMNS for s in lp_count)
    assert "unique: " in capsys.readouterr().out


def test_uniqueness_accepts_measurement_matrix():
    mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 6, 10, seed=1))
    y = mat.entries[:, 2].copy()
    res = certify_uniqueness(mat, y, basis_pursuit(mat, y))
    assert res.unique in (UNIQUE, NOT_UNIQUE)


# -------------------------------------------------------------- l0 search

def test_l0_zero_vector():
    sols = l0_brute_force(np.eye(3), np.zeros(3), 2)
    assert len(sols) == 1
    assert sols[0].support == ()


def test_l0_duplicate_columns_two_solutions():
    g = np.array([[1.0, 1.0, 0.3], [0.5, 0.5, -0.2]])
    sols = l0_brute_force(g, g[:, 0].copy(), 1)
    assert {s.support for s in sols} == {(0,), (1,)}
    for s in sols:
        assert np.allclose(g @ s.to_dense(), g[:, 0], atol=1e-8)


def test_l0_size_one_returns_columns_parallel_to_the_target():
    # the theorem-a l0_unique check is exactly {e1} at size 1: a column
    # parallel to column 1 is a second size-1 solution of y = column 1
    def supports(g):
        return [s.support for s in l0_brute_force(g, g[:, 0], 1)]

    assert supports(np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]])) == [
        (0,), (1,)]  # scaled copy
    assert supports(np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 1.0]])) == [
        (0,), (1,)]  # sign flip
    assert supports(np.eye(2)) == [(0,)]  # orthonormal columns
    assert supports(np.array([[0.0, 1.0], [0.0, 1.0]])) == [()]  # zero column


def test_l0_prefers_smaller_support():
    # y equals a single column but also a combination of two others;
    # the 1-sparse answer must win
    g = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    y = np.array([1.0, 1.0])
    sols = l0_brute_force(g, y, 2)
    assert {s.support for s in sols} == {(0,)}


def test_l0_two_sparse_exact():
    gen = np.random.default_rng(8)
    g = gen.standard_normal((4, 9))
    y = 2.0 * g[:, 1] - 0.5 * g[:, 6]
    sols = l0_brute_force(g, y, 2)
    assert len(sols) == 1
    assert sols[0].support == (1, 6)
    assert np.allclose(sols[0].to_dense()[[1, 6]], [2.0, -0.5], atol=1e-8)


def test_l0_no_solution_within_budget():
    g = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    y = np.array([1.0, 1.0, 1.0])  # outside the column span entirely
    assert l0_brute_force(g, y, 2) == []


@pytest.mark.parametrize("scale", [1.0, 3.0, 10.0])
def test_l0_size_one_finds_every_scaled_column(scale):
    # ||y||^2 - coef*dots loses half the digits, about 1.5e-8*||y|| of
    # residual error against a 1e-8*(1 + ||y||) threshold; on these draws it
    # missed 57, 440 and 597 of 2000 targets and fell through to size 2
    gen = np.random.default_rng(1)
    for _ in range(2000):
        g = gen.standard_normal((3, 4))
        sols = l0_brute_force(g, scale * g[:, 0], 2)
        assert {len(s.support) for s in sols} == {1}
        assert (0,) in {s.support for s in sols}


def _class_inputs():
    """3 x 10^4 Gaussian, Rademacher and spiky draws, then small matrices
    with zero, +-duplicate and signed-zero columns."""
    plan = plan_parameters(3, 10**4)
    for law in (ScalarLaw.gaussian(), ScalarLaw.rademacher(), plan.law()):
        yield sample_matrix(EnsembleSpec(law, 3, 10**4, 2026)).entries
    z = -0.0
    yield np.array([[0.0, z, 0.0, z, 0.0, z, 0.0, 1.0, -1.0, 1.0],
                    [0.0, z, z, 0.0, -1.0, 1.0, 1.0, 2.0, -2.0, 2.0],
                    [0.0, z, 0.0, z, 2.0, -2.0, -2.0, 0.0, z, z]])
    g = np.random.default_rng(3).standard_normal((4, 12))
    g[:, [3, 7]] = -g[:, [1, 5]]
    g[:, 9] = g[:, 1]
    g[:, 10] = 0.0
    g[:2, 11] = 0.0
    yield g
    yield g[:, :1]
    yield g[:, :0]


def test_column_classes():
    for g in _class_inputs():
        first, label, sign = column_classes(g)
        assert (sign * g[:, first[label]]).tobytes() == g.tobytes()
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(label[first], np.arange(first.size))
        assert set(sign.tolist()) <= {1.0, -1.0}
        assert label.tolist() == oracles.classes_up_to_sign(g)
    counts = [column_classes(g)[0].size for g in _class_inputs()]
    # 2^(N-1) = 4 Rademacher sign patterns
    assert counts[0] == 10**4 and counts[1] == 4 and counts[2] < 100
    assert counts[3:] == [6, 9, 1, 0]
    # (0, 0, 0) and (-0, -0, -0) are negations, as are (0, -0, 0) and
    # (-0, 0, -0), and (0, -1, 2) and (-0, 1, -2); (0, 1, -2) is not the
    # negation of (0, -1, 2), and (1, 2, -0) is not (1, 2, 0)
    _, label, sign = column_classes(list(_class_inputs())[3])
    assert label.tolist() == [0, 0, 1, 1, 2, 2, 3, 4, 4, 5]
    assert sign.tolist() == [1, -1, 1, -1, 1, -1, 1, 1, -1, 1]


def _pair_inputs():
    """Gaussian, Rademacher and spiky draws with a zero column and
    +-duplicate columns, then a 3x400 spiky prefix and a 3x400 draw at a
    forced delta = 0.2, whose classes up to sign have sizes from 1 to
    about 60 and mixed signs, each with a target."""
    gen = np.random.default_rng(2026)
    plan = plan_parameters(3, 10**4)
    spiky = plan.law()
    for n_rows in range(2, 7):
        for n_cols in (6, 17, 40):
            for law in (ScalarLaw.gaussian(), ScalarLaw.rademacher(),
                        spiky) * 3:
                spec = EnsembleSpec(law, n_rows, n_cols,
                                    int(gen.integers(2**31)))
                g = sample_matrix(spec).entries.copy()
                i, j, k, m = gen.choice(n_cols, 4, replace=False)
                g[:, i] = 0.0
                g[:, j] = g[:, k]
                g[:, m] = -g[:, k]
                a, b = gen.choice(n_cols, 2, replace=False)
                yield g, g[:, a] + 0.5 * g[:, b]
                yield g, gen.standard_normal(n_rows)
    # as perfbench's l0_pairs workload builds it
    g = sample_matrix(EnsembleSpec(spiky, 3, 400, 2026)).entries
    a, b = np.random.default_rng(2026).choice(400, 2, replace=False)
    yield g, g[:, a] + 0.5 * g[:, b]
    g = sample_matrix(EnsembleSpec(ScalarLaw.spiky(0.2, plan.big_r), 3, 400,
                                   2026)).entries
    yield g, g[:, a] + 0.5 * g[:, b]


@pytest.mark.filterwarnings("error")
def test_l0_pairs_match_loop_oracle():
    eps = np.finfo(np.float64).eps
    inputs = solutions = 0
    for g, y in _pair_inputs():
        if l0_brute_force(g, y, 1):
            continue
        sols = l0_brute_force(g, y, 2)
        expect = oracles.l0_pairs_loop(g, y)
        assert [s.support for s in sols] == [supp for supp, _ in expect]
        inputs += 1
        solutions += len(sols)
        if not sols:
            continue
        got = np.array([s.values for s in sols])
        want = np.array([t for _, t in expect])
        subs = g[:, [supp for supp, _ in expect]].transpose(1, 0, 2)
        # both solvers are forward-accurate to about cond(Gram)*eps
        tol = 1e-12 + np.linalg.cond(subs.transpose(0, 2, 1) @ subs) * eps
        assert np.all(np.abs(got - want).max(axis=1)
                      <= tol * np.abs(want).max(axis=1))
    assert inputs >= 200 and solutions >= 20_000


def test_l0_guards():
    g = np.eye(3)
    y = np.zeros(3)
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        l0_brute_force(g, y, 3)  # no size-3 search
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        l0_brute_force(g, y, -1)
    with pytest.raises(ValueError):
        l0_brute_force(np.eye(1), np.zeros(1), 2)  # d_max above row count
    gen = np.random.default_rng(3)
    g = gen.standard_normal((3, 264))
    y = gen.standard_normal(3)
    assert l0_brute_force(g, y, 2) == []
    assert [s.support for s in l0_brute_force(g, 2.0 * g[:, 5], 2)] == [(5,)]
    pair = l0_brute_force(g, g[:, 1] - g[:, 7], 2)
    assert [s.support for s in pair] == [(1, 7)]


# a 2x300 Gaussian draw: 44,847 of its column pairs fit y = (0.3, -0.7)
WIDE_PAIRS = 44_847


def _wide_pair_case():
    mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 2, 300, 1))
    return mat, np.array([0.3, -0.7])


def test_l0_pair_budget_refuses_a_large_expansion(monkeypatch):
    mat, y = _wide_pair_case()
    monkeypatch.setattr(rec, "L0_PAIR_BUDGET", WIDE_PAIRS)
    assert len(l0_brute_force(mat, y, 2)) == WIDE_PAIRS
    monkeypatch.setattr(rec, "L0_PAIR_BUDGET", WIDE_PAIRS - 1)
    with pytest.raises(ValueError, match=f"{WIDE_PAIRS} column pairs fit y, "
                       f"more than L0_PAIR_BUDGET = {WIDE_PAIRS - 1}"):
        l0_brute_force(mat, y, 2)


def test_l0_pair_budget_exits_1(monkeypatch, tmp_path, capsys):
    mat, y = _wide_pair_case()
    write_matrix_text(mat, tmp_path / "m.txt")
    write_vector_text(y, tmp_path / "y.txt")
    monkeypatch.setattr(rec, "L0_PAIR_BUDGET", 1000)
    assert cli.run(["l0", "--matrix", str(tmp_path / "m.txt"),
                    "--y", str(tmp_path / "y.txt"), "--d-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {WIDE_PAIRS} column pairs fit y, more "
                            f"than L0_PAIR_BUDGET = 1000\n")


# ------------------------------------------------------------------ files

def test_vector_file_roundtrip(tmp_path):
    x = np.array([1.0, -0.1234567890123456789, 3e-300, 0.0])
    path = tmp_path / "v.txt"
    write_vector_text(x, path)
    back = read_vector_text(path)
    assert np.array_equal(back, x)
