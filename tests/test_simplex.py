import numpy as np
import pytest

from spikybp import simplex
from spikybp.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                             feasible_point, solve)

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
    run = simplex._Simplex(lp, 1e-9)
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


def test_feasible_point():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    x = feasible_point(a, b, np.zeros(3), np.ones(3))
    assert x is not None
    assert np.allclose(a @ x, b, atol=1e-9)
    assert np.all(x >= -1e-9) and np.all(x <= 1.0 + 1e-9)
    # shrink the box until the system cannot be met
    assert feasible_point(a, b, np.zeros(3), np.full(3, 0.4)) is None


def test_empty_constraint_guard():
    with pytest.raises(ValueError):
        solve(LinearProgram(np.ones(2), np.empty((0, 2)), np.empty(0)))
