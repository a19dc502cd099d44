import numpy as np
import pytest

from spikybp import recovery, rng, simplex
from spikybp.ensemble import (EnsembleSpec, ScalarLaw, plan_parameters,
                              sample_matrix)
from spikybp.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                             solve)

import oracles


def check_solution_invariants(lp, sol, feas_tol=1e-9):
    assert sol.x.shape == (lp.n_vars,)
    b_norm = float(np.max(np.abs(lp.eq_rhs))) if lp.eq_rhs.size else 0.0
    resid = float(np.max(np.abs(lp.eq_matrix @ sol.x - lp.eq_rhs)))
    assert resid <= 1e-7 * (1.0 + b_norm)
    assert np.all(sol.x >= lp.lower_bounds - 1e-7)
    assert np.all(sol.x <= lp.upper_bounds + 1e-7)
    assert sol.objective_value == pytest.approx(
        float(lp.objective @ sol.x), abs=1e-9 * (1 + abs(sol.objective_value)))
    assert 0 <= sol.phase1_iterations <= sol.iterations
    assert 0 <= sol.degenerate <= sol.iterations


def random_lp(gen, m=3, k=6, force_feasible=False):
    a = gen.standard_normal((m, k))
    lo = gen.uniform(-2.0, 0.0, k)
    hi = lo + gen.uniform(0.5, 3.0, k)
    if force_feasible:
        x0 = gen.uniform(lo, hi)
        b = a @ x0
    else:
        b = gen.standard_normal(m)
    c = gen.standard_normal(k)
    return LinearProgram(c, a, b, lo, hi)


def test_lp_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0, 2.0]], [1.0])  # objective length
    with pytest.raises(ValueError):
        LinearProgram([1.0, 1.0], [[1.0, 2.0]], [1.0],
                      lower_bounds=[0.0, 2.0], upper_bounds=[1.0, 1.0])
    with pytest.raises(ValueError):
        LinearProgram([np.nan, 1.0], [[1.0, 2.0]], [1.0])


def test_simple_equality():
    # min x + y s.t. x + y = 1 has value 1 everywhere on the face
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    check_solution_invariants(lp, sol)


def test_infeasible_negative_rhs():
    lp = LinearProgram([0.0, 0.0], [[1.0, 1.0]], [-1.0])
    assert solve(lp).status == INFEASIBLE


def test_unbounded():
    # x - y = 0, min -x, both free upward
    lp = LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert solve(lp).status == UNBOUNDED


def test_bound_flip_path():
    # optimum parks x at its upper bound without ever entering the basis
    lp = LinearProgram([-1.0, 0.0], [[0.0, 1.0]], [1.0],
                       lower_bounds=[0.0, 0.0], upper_bounds=[2.0, 2.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(2.0)
    assert sol.objective_value == pytest.approx(-2.0)


def test_negative_lower_bounds():
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-3.0],
                       lower_bounds=[-5.0, -5.0], upper_bounds=[5.0, 5.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-3.0, abs=1e-10)
    check_solution_invariants(lp, sol)


def test_beale_degenerate_cycle_guard():
    # the classic cycling example; slacks make it equality form
    a = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.00, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    k = 7
    lp = LinearProgram(c, a, b, np.zeros(k), np.full(k, np.inf))
    sol = solve(lp)
    assert sol.status == OPTIMAL
    st, val = oracles.lp_scipy(c, a, b, np.zeros(k), np.full(k, np.inf))
    assert st == "optimal"
    assert sol.objective_value == pytest.approx(val, abs=1e-9)
    check_solution_invariants(lp, sol)
    # pivot counts, pinned: 3 in phase 1, 2 in phase 2, two of them with
    # zero step; too few degenerate pivots for Bland's rule
    assert (sol.iterations, sol.phase1_iterations, sol.degenerate,
            sol.bland) == (5, 3, 2, False)
    # with no degenerate pivots allowed, the first one switches to Bland
    run = simplex._Simplex(lp)
    run.bland_after = 0
    bland = run.run()
    assert bland.bland and bland.degenerate >= 1
    assert bland.objective_value == pytest.approx(val, abs=1e-9)


def test_random_battery_vs_scipy():
    gen = np.random.default_rng(1234)
    statuses = {"optimal": 0, "infeasible": 0}
    for i in range(150):
        lp = random_lp(gen, force_feasible=(i % 2 == 0))
        sol = solve(lp)
        st, val = oracles.lp_scipy(lp.objective, lp.eq_matrix, lp.eq_rhs,
                                   lp.lower_bounds, lp.upper_bounds)
        if st == "optimal":
            assert sol.status == OPTIMAL, f"case {i}"
            assert sol.objective_value == pytest.approx(val, abs=1e-7), \
                f"case {i}"
            check_solution_invariants(lp, sol)
        elif st == "infeasible":
            assert sol.status == INFEASIBLE, f"case {i}"
        statuses[st] += 1
    # the battery must actually exercise both verdicts
    assert statuses["optimal"] >= 60 and statuses["infeasible"] >= 20


def test_random_battery_vs_vertex_enumeration():
    gen = np.random.default_rng(77)
    for i in range(40):
        lp = random_lp(gen, force_feasible=(i % 3 != 0))
        sol = solve(lp)
        st, val = oracles.lp_vertex_oracle(lp.objective, lp.eq_matrix,
                                           lp.eq_rhs, lp.lower_bounds,
                                           lp.upper_bounds)
        if st == "optimal":
            assert sol.status == OPTIMAL
            assert sol.objective_value == pytest.approx(val, abs=1e-9)
        else:
            assert sol.status == INFEASIBLE


def degenerate_lp(gen, kind):
    """A 3x8 LP with finite boxes and full row rank whose columns repeat:
    a duplicate, a negated and a scaled copy of a base column.  kind 0
    zeroes the right-hand side except a budget row of ones, as in the
    strict-dual LP; kind 1 puts b at a box vertex, so the optimum can sit
    on a degenerate basis; kind 2 draws b at random."""
    base = gen.standard_normal((3, 4))
    a = np.column_stack([base, base[:, 0], -base[:, 1], 2.0 * base[:, 2],
                         -base[:, 3]])
    lo = gen.choice([-1.0, 0.0], 8)
    hi = lo + gen.choice([0.5, 1.0, 2.0], 8)
    if kind == 0:
        a[2] = 1.0
        b = np.array([0.0, 0.0, 1.0])
    elif kind == 1:
        b = a @ np.where(gen.random(8) < 0.5, lo, hi)
    else:
        b = gen.standard_normal(3)
    # each copy costs what its base column costs, scaled alike, so optima tie
    c = gen.choice([-1.0, 0.0, 1.0], 8)
    c[4:] = c[[0, 1, 2, 3]] * np.array([1.0, -1.0, 2.0, -1.0])
    assert np.linalg.matrix_rank(a) == 3
    return LinearProgram(c, a, b, lo, hi)


def test_degenerate_battery_vs_vertex_enumeration():
    gen = np.random.default_rng(909)
    seen = {"optimal": 0, "infeasible": 0}
    degenerate = 0
    for i in range(60):
        lp = degenerate_lp(gen, i % 3)
        sol = solve(lp)
        st, val = oracles.lp_vertex_oracle(lp.objective, lp.eq_matrix,
                                           lp.eq_rhs, lp.lower_bounds,
                                           lp.upper_bounds)
        assert sol.status == st, f"case {i}"
        if st == "optimal":
            assert sol.objective_value == pytest.approx(val, abs=1e-9), \
                f"case {i}"
            check_solution_invariants(lp, sol)
        seen[st] += 1
        degenerate += sol.degenerate
    # the battery must reach both verdicts and zero-length steps
    assert seen["optimal"] >= 20 and seen["infeasible"] >= 5
    assert degenerate >= 20


def test_singular_basis_raises():
    # two basis slots holding one column: dgetrf reports the zero pivot,
    # where a bare dgetrs would hand back an inf or NaN step
    lp = LinearProgram(np.ones(3), [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]],
                       [1.0, 1.0], upper_bounds=np.full(3, 2.0))
    run = simplex._Simplex(lp)
    run.basis[:] = 1
    x = run.x.copy()
    with pytest.raises(np.linalg.LinAlgError):
        run._phase(np.concatenate([np.zeros(run.k), np.ones(run.m)]),
                   phase1=True)
    assert np.array_equal(run.x, x) and run.iterations == 0


def test_pivot_path_pins(lp_count):
    # (iterations, phase1_iterations, degenerate, bland) of three fixed
    # LPs at the benchmark's shapes; a kernel change that moves the pivot
    # path moves these
    g = np.random.default_rng(2026).standard_normal((10, 20))
    bp = recovery.basis_pursuit(g, g[:, 0])
    recovery.certify_uniqueness(g, g[:, 0], bp)
    h = np.random.default_rng(2026).standard_normal((12, 64))
    recovery.basis_pursuit(h[:, 1:], h[:, 0])
    assert [(s.status, s.iterations, s.phase1_iterations, s.degenerate,
             s.bland) for s in lp_count] == [
        (OPTIMAL, 24, 15, 23, False),   # basis pursuit, 10x40
        (OPTIMAL, 26, 16, 15, False),   # strict-dual uniqueness LP, 11x40
        (OPTIMAL, 31, 15, 0, False),    # least-l1 representation, 12x126
    ]
    assert [s.objective_value for s in lp_count] == pytest.approx(
        [1.0, -0.21368640946062925, 1.0716607771960946], abs=1e-12)


def stalled_tie():
    """(Gamma[:, 1:], Gamma e1) of a 12 x 10^4 spiky matrix with columns
    equal to +-column 1, so the basis-pursuit value is exactly 1."""
    plan = plan_parameters(12, 10_000)
    spec = EnsembleSpec(ScalarLaw.spiky(plan.delta, 4.0), 12, 10_000,
                        rng.mix_seed(7, 5))
    g = sample_matrix(spec).entries
    return g[:, 1:], g[:, 0]


def test_bland_rule_ends_a_degenerate_stall():
    # on the dense [Gamma, -Gamma] LP of the tie, Dantzig pricing cycles
    # through zero steps; with Bland's rule after 3 (m + k) degenerate
    # pivots this LP took 60,070 pivots, with 50 m it takes 652
    g, y = stalled_tie()
    sol = solve(LinearProgram(np.ones(2 * g.shape[1]), np.hstack([g, -g]), y))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.bland and sol.iterations <= 1000


def test_sifting_shortens_the_tie(lp_count):
    # basis pursuit sifts the same LP: 4 rounds and 120 pivots in all
    g, y = stalled_tie()
    bp = recovery.basis_pursuit(g, y)
    assert bp.l1_value == pytest.approx(1.0, abs=1e-9)
    assert len(lp_count) > 1
    assert sum(s.iterations for s in lp_count) <= 240


def test_infeasible_returns_phase1_duals():
    # b is off the range of A, and the split [A, -A] makes every column
    # movable both ways: the phase-1 duals y have A'y ~ 0 and y'b > 0
    gen = np.random.default_rng(31)
    for _ in range(20):
        a = gen.standard_normal((4, 9))
        a[3] = a[0] - 2.0 * a[1]
        b = gen.standard_normal(4)
        sol = solve(LinearProgram(np.zeros(18), np.hstack([a, -a]), b))
        assert sol.status == INFEASIBLE
        assert np.abs(a.T @ sol.dual).max() <= simplex._DUAL_TOL
        assert sol.dual @ b > simplex.FEAS_TOL * (1.0 + np.abs(b).max())


def test_dual_certificate_on_optimal():
    gen = np.random.default_rng(5)
    for _ in range(20):
        lp = random_lp(gen, force_feasible=True)
        sol = solve(lp)
        if sol.status != OPTIMAL or sol.dual is None:
            continue
        # weak duality residual: reduced costs respect the bound signs
        d = lp.objective - lp.eq_matrix.T @ sol.dual
        at_lower = np.abs(sol.x - lp.lower_bounds) <= 1e-7
        at_upper = np.abs(sol.x - lp.upper_bounds) <= 1e-7
        interior = ~(at_lower | at_upper)
        assert np.all(np.abs(d[interior]) <= 1e-6)
        assert np.all(d[at_lower & ~at_upper] >= -1e-6)
        assert np.all(d[at_upper & ~at_lower] <= 1e-6)


def test_empty_constraint_guard():
    with pytest.raises(ValueError):
        solve(LinearProgram(np.ones(2), np.empty((0, 2)), np.empty(0)))
