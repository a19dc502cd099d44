"""Independent reference implementations used to pin expected test values.

Nothing in here imports the package under test.  Moments go through mpmath
at 50 digits, linear programs through brute-force vertex enumeration,
probabilities through numpy.random Monte Carlo, the compatibility
minimum through a dense grid plus an SLSQP polish, and l0 pairs through
one dense solve per pair.  Slow is fine.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.optimize import linprog, minimize

mp.mp.dps = 50


# ---------------------------------------------------------------- moments

def mp_spiky_lp(delta, big_r, p) -> float:
    d, r, q = mp.mpf(delta), mp.mpf(big_r), mp.mpf(p)
    return float(((1 - d) + d * (1 + r) ** q) ** (1 / q))


def mp_gaussian_lp(p) -> float:
    q = mp.mpf(p)
    m = 2 ** (q / 2) * mp.gamma((q + 1) / 2) / mp.sqrt(mp.pi)
    return float(m ** (1 / q))


def quad_gaussian_lp(p) -> float:
    """Same moment by direct quadrature, as a second route."""
    q = mp.mpf(p)
    pdf = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    m = 2 * mp.quad(lambda x: x ** q * pdf(x), [0, mp.inf])
    return float(m ** (1 / q))


def mp_plan(n_rows, n_cols, c_lo=3) -> tuple:
    """(delta, p, R) from the planner's defining formulas."""
    big_n, n = mp.mpf(n_rows), mp.mpf(n_cols)
    delta = c_lo * mp.log(big_n) / n
    p = mp.log(n) / mp.log(big_n)
    big_r = mp.sqrt(p) * (1 / delta) ** (1 / p)
    return float(delta), float(p), float(big_r)


def mp_max_rows(n_cols, p) -> float:
    n, q = mp.mpf(n_cols), mp.mpf(p)
    return float(mp.sqrt(q) * n ** (1 / q))


def enum_fourth_moment(kind, delta, big_r, t) -> float:
    """E <X, t>^4 by exhaustive pattern enumeration, X iid normalized law.

    spiky entries take 4 values, rademacher 2; gaussian closes in one line.
    """
    # zero coordinates contribute nothing; skipping them keeps the
    # enumeration at 4^(support size)
    t = [mp.mpf(float(v)) for v in t if float(v) != 0.0]
    if kind == "gaussian":
        s2 = sum(v * v for v in t)
        return float(3 * s2 * s2)
    if kind == "rademacher":
        atoms = [(mp.mpf(1), mp.mpf("0.5")), (mp.mpf(-1), mp.mpf("0.5"))]
    else:
        d, r = mp.mpf(delta), mp.mpf(big_r)
        nu = mp.sqrt((1 - d) + d * (1 + r) ** 2)
        atoms = [(1 / nu, (1 - d) / 2), (-1 / nu, (1 - d) / 2),
                 ((1 + r) / nu, d / 2), (-(1 + r) / nu, d / 2)]
    total = mp.mpf(0)
    for combo in itertools.product(atoms, repeat=len(t)):
        prob = mp.mpf(1)
        dot = mp.mpf(0)
        for (x, pr), tv in zip(combo, t):
            prob *= pr
            dot += x * tv
        total += prob * dot ** 4
    return float(total)


def mp_wilson_95(successes, trials) -> tuple:
    z = mp.sqrt(2) * mp.erfinv(mp.mpf("0.95"))
    n = mp.mpf(trials)
    phat = mp.mpf(successes) / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * mp.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (float(max(0, center - half)), float(min(1, center + half)))


# ------------------------------------------------------- linear programs

def lp_vertex_oracle(c, a_eq, b_eq, lower, upper, tol=1e-9):
    """("optimal", value) or ("infeasible", None) by basic-solution search.

    Requires finite bounds on every variable so the feasible set is a
    polytope and vertex enumeration is exhaustive.
    """
    c = np.asarray(c, float)
    a_eq = np.asarray(a_eq, float)
    b_eq = np.asarray(b_eq, float)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    m, k = a_eq.shape
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    best = None
    for basis in itertools.combinations(range(k), m):
        nonbasic = [j for j in range(k) if j not in basis]
        a_b = a_eq[:, basis]
        for picks in itertools.product((0, 1), repeat=len(nonbasic)):
            x = np.empty(k)
            for j, pick in zip(nonbasic, picks):
                x[j] = upper[j] if pick else lower[j]
            rhs = b_eq - a_eq[:, nonbasic] @ x[list(nonbasic)]
            try:
                x_b = np.linalg.solve(a_b, rhs)
            except np.linalg.LinAlgError:
                continue
            x[list(basis)] = x_b
            if np.any(x < lower - tol) or np.any(x > upper + tol):
                continue
            val = float(c @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def lp_scipy(c, a_eq, b_eq, lower, upper):
    """HiGHS route, for statuses vertex enumeration cannot produce."""
    res = linprog(c, A_eq=a_eq, b_eq=b_eq,
                  bounds=list(zip(lower, upper)), method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    return status, (float(res.fun) if res.status == 0 else None)


def er1_representation_norms(g):
    """Least l1 norm r_j of a representation of column j by the others.

    ER(1) holds iff every r_j exceeds 1: a kernel vector h with h_j = -1
    has ||h_{-j}||_1 >= r_j, so |h_j| < ||h||_1 / 2 for all h iff all
    r_j > 1.  One HiGHS LP per column over (t+, t-) >= 0.
    """
    g = np.asarray(g, float)
    n_cols = g.shape[1]
    out = np.empty(n_cols)
    for j in range(n_cols):
        rest = np.delete(g, j, axis=1)
        res = linprog(np.ones(2 * (n_cols - 1)),
                      A_eq=np.hstack([rest, -rest]), b_eq=g[:, j],
                      bounds=(0, None), method="highs")
        out[j] = res.fun if res.status == 0 else math.inf
    return out


def nsp_worst_value(g, d):
    """max sum_S s_i h_i over Gamma h = 0, ||h||_1 <= 1, every |S| = d and
    every sign pattern s: one HiGHS LP each over h = h+ - h-."""
    g = np.asarray(g, float)
    n_rows, n_cols = g.shape
    best = -math.inf
    for support in itertools.combinations(range(n_cols), d):
        for signs in itertools.product((1.0, -1.0), repeat=d):
            c = np.zeros(2 * n_cols)
            for i, s in zip(support, signs):
                c[i] -= s
                c[n_cols + i] += s
            res = linprog(c, A_ub=np.ones((1, 2 * n_cols)), b_ub=[1.0],
                          A_eq=np.hstack([g, -g]), b_eq=np.zeros(n_rows),
                          bounds=(0, None), method="highs")
            best = max(best, -res.fun)
    return best


def gaussian_er1_rate(n_rows, n_cols, draws, seed):
    """(ER(1) held, draws) on numpy-seeded standard Gaussian matrices.

    Matrices come from np.random.default_rng(seed), scaled by 1/sqrt(N)
    (the scale does not change the verdict).
    """
    gen = np.random.default_rng(seed)
    held = 0
    for _ in range(draws):
        g = gen.standard_normal((n_rows, n_cols)) / math.sqrt(n_rows)
        held += bool(np.all(er1_representation_norms(g) > 1.0))
    return held, draws


# --------------------------------------------------------------- l0 pairs

def l0_pairs_loop(g, y, res_tol=1e-8):
    """[(support, values)] of every column pair fitting y, itertools order.

    One dense solve of the 2x2 Gram system per pair, lstsq when it is
    singular; a pair fits when ||y - g_S t|| <= res_tol*(1 + ||y||) and
    both values are nonzero.
    """
    thresh = res_tol * (1.0 + np.linalg.norm(y))
    found = []
    for supp in itertools.combinations(range(g.shape[1]), 2):
        sub = g[:, supp]
        try:
            t = np.linalg.solve(sub.T @ sub, sub.T @ y)
        except np.linalg.LinAlgError:
            t, *_ = np.linalg.lstsq(sub, y, rcond=None)
        if np.linalg.norm(y - sub @ t) <= thresh and np.all(t != 0.0):
            found.append((supp, t))
    return found


# ------------------------------------------------- compatibility minimum

def compat_oracle(g, s_idx, sigma_vals, l_budget, grid=241):
    """min over sign patterns and the off-support l1 ball, |S| = 1 only.

    Returns (grid_min, slsqp_min, grid_error_bound); the true minimum lies
    in [grid_min - bound, min(grid_min, slsqp_min)].
    """
    g = np.asarray(g, float)
    comp = [j for j in range(g.shape[1]) if j != s_idx]
    a_c = g[:, comp]
    target_base = g[:, s_idx]
    axes = [np.linspace(-l_budget, l_budget, grid)] * len(comp)
    mesh = np.meshgrid(*axes, indexing="ij")
    beta = np.stack([m.ravel() for m in mesh])
    keep = np.abs(beta).sum(axis=0) <= l_budget + 1e-12
    beta = beta[:, keep]
    h = 2.0 * l_budget / (grid - 1)
    best_grid = math.inf
    best_slsqp = math.inf
    op_norm = np.linalg.norm(a_c, 2)
    lip = 2.0 * op_norm * (np.linalg.norm(target_base)
                           + l_budget * op_norm)
    for sigma in sigma_vals:
        target = sigma * target_base
        resid = target[:, None] - a_c @ beta
        best_grid = min(best_grid, float((resid * resid).sum(axis=0).min()))

        def f(b, target=target):
            r = target - a_c @ b
            return float(r @ r)

        cons = [{"type": "ineq",
                 "fun": lambda b: l_budget - np.abs(b).sum()}]
        for x0 in (np.zeros(len(comp)),
                   np.full(len(comp), l_budget / (2 * len(comp)))):
            res = minimize(f, x0, method="SLSQP", constraints=cons,
                           options={"maxiter": 500, "ftol": 1e-14})
            if res.success:
                best_slsqp = min(best_slsqp, float(res.fun))
    # rounding any feasible point toward zero stays feasible and moves
    # each coordinate at most h/2
    bound = lip * (h / 2.0) * math.sqrt(len(comp))
    return best_grid, best_slsqp, bound


# ------------------------------------------------------------ simulation

def simulate_spike_events(n_rows, n_cols, delta, trials, seed):
    """(clean-column-1 freq, row-1-covered freq, all-rows-covered freq).

    Fresh numpy Generator; no code shared with the package RNG.
    """
    gen = np.random.default_rng(seed)
    clean = covered0 = covered_all = 0
    for _ in range(trials):
        mask = gen.random((n_rows, n_cols)) < delta
        if not mask[:, 0].any():
            clean += 1
        rest = mask[:, 1:]
        single = rest.sum(axis=0) == 1
        hit = (rest & single[None, :]).any(axis=1)
        if hit[0]:
            covered0 += 1
        if hit.all():
            covered_all += 1
    return clean / trials, covered0 / trials, covered_all / trials


def simulate_small_ball(kind, delta, big_r, t, theta, samples, seed):
    """Empirical P(<X, t>^2 >= theta^2 E<X, t>^2) for the normalized law."""
    gen = np.random.default_rng(seed)
    t = np.asarray(t, float)
    k = t.size
    if kind == "gaussian":
        x = gen.standard_normal((samples, k))
    else:
        x = np.where(gen.random((samples, k)) < 0.5, -1.0, 1.0)
        if kind == "spiky":
            x = x * np.where(gen.random((samples, k)) < delta,
                             1.0 + big_r, 1.0)
            x = x / math.sqrt((1 - delta) + delta * (1 + big_r) ** 2)
    dots = x @ t
    level = theta * theta * float(t @ t)
    return float(np.mean(dots * dots >= level))


# ------------------------------------------------------------------ rng

def splitmix64_reference(state):
    """One splitmix64 output for the given state, straight from the
    published constants (Steele, Lea, Flood 2014)."""
    mask = (1 << 64) - 1
    z = (state + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)
