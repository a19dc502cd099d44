import numpy as np
import pytest

from spikybp import recovery, rng, simplex
from spikybp.ensemble import (EnsembleSpec, ScalarLaw, plan_parameters,
                              sample_matrix)
from spikybp.simplex import INFEASIBLE, OPTIMAL, LinearProgram, solve

import oracles


def check_solution_invariants(lp, sol, feas_tol=1e-9):
    assert sol.x.shape == (lp.n_vars,)
    b_norm = float(np.max(np.abs(lp.eq_rhs))) if lp.eq_rhs.size else 0.0
    resid = float(np.max(np.abs(lp.eq_matrix @ sol.x - lp.eq_rhs)))
    assert resid <= 1e-7 * (1.0 + b_norm)
    assert sol.max_violation <= 1e-7 * (1.0 + b_norm)
    assert np.all(sol.x >= -1e-7)
    assert sol.objective_value == pytest.approx(
        float(lp.objective @ sol.x), abs=1e-9 * (1 + abs(sol.objective_value)))
    assert 0 <= sol.phase1_iterations <= sol.iterations
    assert 0 <= sol.degenerate <= sol.iterations


def standard(box):
    """The solver's LP of a box LP (c, A, b, lower, upper), and the offset
    by which its value falls short of the box LP's."""
    c, a, b, offset = oracles.box_to_standard(*box)
    return LinearProgram(c, a, b), offset


def random_lp(gen, m=3, k=6, force_feasible=False):
    """A box LP (c, A, b, lower, upper) with finite bounds."""
    a = gen.standard_normal((m, k))
    lo = gen.uniform(-2.0, 0.0, k)
    hi = lo + gen.uniform(0.5, 3.0, k)
    if force_feasible:
        x0 = gen.uniform(lo, hi)
        b = a @ x0
    else:
        b = gen.standard_normal(m)
    c = gen.standard_normal(k)
    return c, a, b, lo, hi


def test_lp_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0, 2.0]], [1.0])  # objective length
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
    # x - y = 0, min -x, both free upward: a negative cost the package
    # never builds, so the infinite step raises
    lp = LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    with pytest.raises(RuntimeError, match="unbounded"):
        solve(lp)


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
    lp = LinearProgram(c, a, b)
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
        box = random_lp(gen, force_feasible=(i % 2 == 0))
        lp, offset = standard(box)
        sol = solve(lp)
        st, val = oracles.lp_scipy(*box)
        if st == "optimal":
            assert sol.status == OPTIMAL, f"case {i}"
            assert sol.objective_value + offset == pytest.approx(
                val, abs=1e-7), f"case {i}"
            check_solution_invariants(lp, sol)
        elif st == "infeasible":
            assert sol.status == INFEASIBLE, f"case {i}"
        statuses[st] += 1
    # the battery must actually exercise both verdicts
    assert statuses["optimal"] >= 60 and statuses["infeasible"] >= 20


def test_random_battery_vs_vertex_enumeration():
    gen = np.random.default_rng(77)
    for i in range(40):
        box = random_lp(gen, force_feasible=(i % 3 != 0))
        lp, offset = standard(box)
        sol = solve(lp)
        st, val = oracles.lp_vertex_oracle(*box)
        if st == "optimal":
            assert sol.status == OPTIMAL
            assert sol.objective_value + offset == pytest.approx(val,
                                                                 abs=1e-9)
        else:
            assert sol.status == INFEASIBLE


def degenerate_lp(gen, kind):
    """A 3x8 box LP (c, A, b, lower, upper) of full row rank whose columns
    repeat:
    a duplicate, a negated and a scaled copy of a base column.  kind 0
    zeroes the right-hand side except a budget row of ones, a homogeneous
    system with one normalizing row; kind 1 puts b at a box vertex, so the
    optimum can sit on a degenerate basis; kind 2 draws b at random."""
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
    return c, a, b, lo, hi


def test_degenerate_battery_vs_vertex_enumeration():
    gen = np.random.default_rng(909)
    seen = {"optimal": 0, "infeasible": 0}
    degenerate = 0
    for i in range(60):
        box = degenerate_lp(gen, i % 3)
        lp, offset = standard(box)
        sol = solve(lp)
        st, val = oracles.lp_vertex_oracle(*box)
        assert sol.status == st, f"case {i}"
        if st == "optimal":
            assert sol.objective_value + offset == pytest.approx(
                val, abs=1e-9), f"case {i}"
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
                       [1.0, 1.0])
    run = simplex._Simplex(lp)
    run.basis[:] = 1
    x = run.x.copy()
    with pytest.raises(np.linalg.LinAlgError):
        run._phase(np.concatenate([np.zeros(run.k), np.ones(run.m)]))
    assert np.array_equal(run.x, x) and run.iterations == 0


# min x_1 + x_2 s.t. 2 x_2 + x_3 = 1, -x_3 = 0
PINNED_BLOCK = LinearProgram([1.0, 1.0, 0.0], [[0.0, 2.0, 1.0],
                                               [0.0, 0.0, -1.0]], [1.0, 0.0])


def test_iteration_cap_raises():
    # the cap is checked before each pivot; this LP needs 2
    run = simplex._Simplex(PINNED_BLOCK)
    run.cap = 1
    with pytest.raises(simplex.IterationLimitError, match="cap 1"):
        run.run()
    assert run.iterations == 1


def split_lp(a, b):
    """min sum(t+ + t-) s.t. [A, -A] (t+, t-) = b, t+- >= 0: basis pursuit."""
    return LinearProgram(np.ones(2 * a.shape[1]), np.hstack([a, -a]), b)


def test_start_basis_skips_phase1():
    # any m independent columns, each entered on the side of its
    # coefficient's sign, are a feasible start: the value is the one from
    # the artificials, with no phase-1 pivot, and restarting from the
    # final basis makes no pivot at all
    gen = np.random.default_rng(2024)
    for i in range(40):
        m = 1 + i % 8
        a = gen.standard_normal((m, m + gen.integers(0, 3 * m + 1)))
        b = a[:, :2] @ gen.standard_normal(2) if i % 2 else gen.standard_normal(m)
        cols = gen.permutation(a.shape[1])[:m]
        t = np.linalg.solve(a[:, cols], b)
        basis = np.where(t >= 0.0, cols, a.shape[1] + cols)
        lp = split_lp(a, b)
        cold = solve(lp)
        warm = solve(lp, basis)
        assert warm.status == cold.status == OPTIMAL, f"case {i}"
        assert warm.objective_value == pytest.approx(cold.objective_value,
                                                     abs=1e-9), f"case {i}"
        assert warm.phase1_iterations == 0, f"case {i}"
        check_solution_invariants(lp, warm)
        again = solve(lp, warm.basis)
        assert again.iterations == 0
        assert again.objective_value == pytest.approx(warm.objective_value,
                                                      abs=1e-12)


def test_start_basis_must_be_nonsingular():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    lp = split_lp(a, np.array([1.0, 1.0]))
    for basis in ([0, 0], [0, 1], [0, 3], [0, 6], [1, 5, 2], [2, -1]):
        with pytest.raises(ValueError):
            solve(lp, basis)


def test_start_basis_must_be_feasible():
    # column 0 enters as t+ with coefficient -1 in B^-1 b: t+ = -1 < 0
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    lp = split_lp(a, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="feasible"):
        solve(lp, [0, 1])
    sol = solve(lp, [3, 1])  # the same columns with t- for column 0
    assert sol.phase1_iterations == 0
    assert sol.objective_value == pytest.approx(2.0, abs=1e-12)


def strict_dual_lp(g, x):
    """(Q2'Gamma_C, c): the kernel LP certify_uniqueness builds at the
    minimizer x, built as it builds it."""
    on_s = np.abs(x) > simplex.FEAS_TOL * np.abs(x).max()
    s_idx = np.nonzero(on_s)[0]
    q, r = np.linalg.qr(g[:, s_idx], mode="complete")
    k, g_c = s_idx.size, g[:, ~on_s]
    return q[:, k:].T @ g_c, g_c.T @ (q[:, :k] @ np.linalg.solve(
        r[:k].T, np.sign(x[s_idx])))


def test_pivot_path_pins(lp_count):
    # (iterations, phase1_iterations, degenerate, bland) of three fixed
    # LPs at the benchmark's shapes; a kernel change that moves the pivot
    # path moves these
    g = np.random.default_rng(2026).standard_normal((10, 20))
    bp = recovery.basis_pursuit(g, g[:, 0])
    # ||c||_inf decides this target with no LP, so its LP is solved here
    assert (recovery.certify_uniqueness(g, g[:, 0], bp).unique
            == recovery.UNIQUE)
    recovery._kernel_lp(*strict_dual_lp(g, bp.minimizer))
    h = np.random.default_rng(2026).standard_normal((12, 64))
    recovery.basis_pursuit(h[:, 1:], h[:, 0])
    # a rank-deficient Gamma: phase 1 ends with an artificial basic at 0,
    # so phase 2 runs with a pinned artificial in the basis
    r = np.random.default_rng(2026).standard_normal((6, 30))
    r[5] = r[0] - 2 * r[1]
    bp = recovery.basis_pursuit(r, r[:, 0])
    recovery.certify_uniqueness(r, r[:, 0], bp)
    assert [(s.status, s.iterations, s.phase1_iterations, s.degenerate,
             s.bland) for s in lp_count] == [
        (OPTIMAL, 5, 0, 5, False),      # basis pursuit, 10x40
        (OPTIMAL, 8, 0, 0, False),      # strict-dual uniqueness LP, 10x38
        (OPTIMAL, 16, 0, 0, False),     # least-l1 representation, 12x126
        (OPTIMAL, 7, 5, 1, False),      # basis pursuit, rank 5, 6x60
        (OPTIMAL, 10, 6, 5, False),     # its strict-dual uniqueness LP
    ]
    assert [s.objective_value for s in lp_count] == pytest.approx(
        [1.0, 1 / 0.21368640946062925, 1.0716607771960946, 1.0,
         1.435596454519622], abs=1e-12)
    assert all(np.any(s.basis >= s.x.size) for s in lp_count[3:])
    # b_2 = 0 leaves row 2's artificial basic at 0 after phase 1; phase 2
    # enters x_3, whose step would raise that artificial, so the pinned
    # artificial blocks at step 0 and leaves
    sol = solve(PINNED_BLOCK)
    assert (sol.status, sol.iterations, sol.phase1_iterations, sol.degenerate,
            sol.bland) == (OPTIMAL, 2, 1, 1, False)
    assert sol.objective_value == 0.5
    assert np.array_equal(sol.x, [0.0, 0.5, 0.0])


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
    # basis pursuit sifts the same LP: 4 rounds and 24 pivots in all
    # (15, 7, 1, 1), from warm starts; cold rounds took 120
    g, y = stalled_tie()
    bp = recovery.basis_pursuit(g, y)
    assert bp.l1_value == pytest.approx(1.0, abs=1e-9)
    assert len(lp_count) > 1
    assert sum(s.iterations for s in lp_count) <= 48


def same_bits(u, v) -> bool:
    """u and v have one type and, for floats and arrays, the same bytes."""
    if type(u) is not type(v):
        return False
    if isinstance(u, np.ndarray):
        return (u.dtype == v.dtype and u.shape == v.shape
                and u.tobytes() == v.tobytes())
    if isinstance(u, float):
        return np.float64(u).tobytes() == np.float64(v).tobytes()
    return u == v


def outcome(run, lp, basis=None):
    """The fields of run(lp, basis) as a dict, or the exception's type name
    and message."""
    try:
        sol = run(lp, basis)
    except (ValueError, RuntimeError) as err:  # LinAlgError is a ValueError
        return type(err).__name__, str(err)
    return sol if isinstance(sol, dict) else dict(vars(sol))


def test_kernel_matches_reference_bitwise():
    # the pivot loop keeps its entering mask and runs the ratio test on
    # Python floats; oracles.reference_solve rebuilds both with arrays on
    # every pivot.  Every field, and every exception, must agree bit for bit
    lps = []
    for seed, make, count in ((1234, random_lp, 150), (909, degenerate_lp, 60)):
        gen = np.random.default_rng(seed)
        for i in range(count):
            box = (random_lp(gen, force_feasible=(i % 2 == 0))
                   if make is random_lp else degenerate_lp(gen, i % 3))
            lps.append((standard(box)[0], None))
    # least-l1 representations of each column of four 12 x 64 Gaussian
    # draws, from the artificial basis and from the crash basis
    for t in range(4):
        g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), 12, 64,
                                       rng.mix_seed(2026, t))).entries
        for j in range(64):
            rest = np.delete(g, j, axis=1)
            lp = split_lp(rest, g[:, j])
            lps += [(lp, None), (lp, recovery._crash_basis(rest, g[:, j]))]
    r = np.random.default_rng(2026).standard_normal((6, 30))
    r[5] = r[0] - 2 * r[1]
    bp = recovery.basis_pursuit(r, r[:, 0])
    a, c = strict_dual_lp(r, bp.minimizer)
    e_last = np.zeros(a.shape[0] + 1)
    e_last[-1] = 1.0
    g, y = stalled_tie()
    lps += [(split_lp(r, r[:, 0]), None),
            (split_lp(np.vstack([a, c]), e_last), None),
            (PINNED_BLOCK, None),
            (split_lp(g, y), None),                       # Bland's rule
            (LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0]), None),
            (split_lp(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
                      np.array([1.0, 1.0])), [0, 1]),     # singular start
            (split_lp(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
                      np.array([-1.0, 1.0])), [0, 1])]    # infeasible start
    kinds = set()
    for i, (lp, basis) in enumerate(lps):
        got = outcome(solve, lp, basis)
        want = outcome(oracles.reference_solve, lp, basis)
        if isinstance(want, tuple):
            assert got == want, f"LP {i}"
            kinds.add(want[0])
            continue
        assert set(got) == set(want), f"LP {i}"
        for name in want:
            assert same_bits(got[name], want[name]), f"LP {i}: {name}"
        kinds.add(want["status"])
        kinds.update(key for key in ("bland", "degenerate") if want[key])
    # the LPs reach both verdicts, zero steps, Bland's rule and each raise
    assert {OPTIMAL, INFEASIBLE, "bland", "degenerate", "RuntimeError",
            "ValueError"} <= kinds


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
        lp, _ = standard(random_lp(gen, force_feasible=True))
        sol = solve(lp)
        assert sol.status == OPTIMAL  # a nonempty box is feasible and bounded
        # complementary slackness: reduced costs d >= 0, and d = 0 where x > 0
        d = lp.objective - lp.eq_matrix.T @ sol.dual
        assert np.all(d >= -1e-6)
        assert np.all(np.abs(d[sol.x > 1e-7]) <= 1e-6)


def test_empty_constraint_guard():
    with pytest.raises(ValueError):
        solve(LinearProgram(np.ones(2), np.empty((0, 2)), np.empty(0)))
