"""Independent reference implementations used to pin expected test values.

Nothing in here imports the package's code; mp_plan reads only its constant
C2_LOWER, an input to the planner's formulas.  Moments go through mpmath
at 50 digits, box-bounded linear programs through brute-force vertex
enumeration or HiGHS (box_to_standard gives the solver's form of one),
simplex pivots through a loop that keeps its bookkeeping in arrays
(reference_solve), probabilities through numpy.random Monte Carlo, the
compatibility minimum through a dense grid plus an SLSQP polish (and, bit
for bit, through Frank-Wolfe over every column), and l0 pairs through one
dense solve per pair.  Slow is fine.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.optimize import linprog, minimize

from spikybp.ensemble import C2_LOWER

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


def mp_plan(n_rows, n_cols) -> tuple:
    """(delta, p, R) from the planner's defining formulas."""
    big_n, n = mp.mpf(n_rows), mp.mpf(n_cols)
    delta = mp.mpf(C2_LOWER) * mp.log(big_n) / n
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


def box_to_standard(c, a_eq, b_eq, lower, upper):
    """(c', A', b', offset): min c.x s.t. A x = b, lower <= x <= upper with
    finite bounds, in the standard form min c'.(u, s) s.t. A'(u, s) = b',
    (u, s) >= 0.  x = lower + u and u + s = upper - lower, so the box LP's
    value is the standard form's plus offset = c.lower."""
    c = np.asarray(c, float)
    a_eq = np.asarray(a_eq, float)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    m, k = a_eq.shape
    a_std = np.block([[a_eq, np.zeros((m, k))], [np.eye(k), np.eye(k)]])
    b_std = np.concatenate([np.asarray(b_eq, float) - a_eq @ lower,
                            upper - lower])
    return np.concatenate([c, np.zeros(k)]), a_std, b_std, float(c @ lower)


class IterationLimitError(RuntimeError):
    """reference_solve's pivot cap; the message names the cap."""


def reference_solve(lp, basis=None) -> dict:
    """The two-phase simplex of spikybp.simplex.solve with its bookkeeping
    in arrays: every pivot rebuilds the entering mask ~basic & ~pinned,
    takes the first maximum of |d| over the candidates (Bland's rule: the
    first candidate) and runs the ratio test on arrays, then picks the
    lowest basis index among the tied rows.  lp has objective, eq_matrix
    and eq_rhs.

    Returns the LpSolution fields as a dict; raises what solve raises,
    with this module's IterationLimitError for the pivot cap.  The same
    LAPACK routines do the same arithmetic, so every field should match
    solve's bit for bit.
    """
    dual_tol, pivot_tol, degen_tol, feas_tol = 1e-9, 1e-10, 1e-12, 1e-9
    c_orig = np.asarray(lp.objective, float)
    m, k = np.shape(lp.eq_matrix)
    total = k + m
    a = np.zeros((m, total))
    a[:, :k] = lp.eq_matrix
    b = np.array(lp.eq_rhs, float)
    a[np.arange(m), k + np.arange(m)] = np.where(b >= 0.0, 1.0, -1.0)
    st = {"iterations": 0, "degenerate": 0, "bland": False, "y": None}
    cap = 50 * (m + k) ** 2
    bland_after = min(3 * (m + k), 50 * m)
    x = np.zeros(total)
    x[k:] = np.abs(b)
    basic = np.zeros(total, dtype=bool)
    basic[k:] = True
    pinned = np.zeros(total, dtype=bool)
    bi = np.arange(k, total)
    b_tol = feas_tol * (1.0 + np.abs(b).max(initial=0.0))
    if basis is not None:
        basis = np.asarray(basis, dtype=np.intp)
        if basis.shape != (m,) or np.any((basis < 0) | (basis >= total)):
            raise ValueError(f"start basis must be {m} indices below {total}")
        lu, piv, info = dgetrf(a[:, basis])
        if info > 0:
            raise ValueError("start basis is singular")
        xb = dgetrs(lu, piv, b)[0]
        if np.any(xb < -b_tol):
            raise ValueError("start basis is not primal feasible")
        x[:] = 0.0
        x[basis] = xb
        basic[:] = False
        basic[basis] = True
        pinned[k:] = ~basic[k:]
        bi = basis.copy()

    def phase(c):
        while True:
            if st["iterations"] >= cap:
                raise IterationLimitError(
                    f"simplex iteration cap {cap} exceeded")
            lu, piv, info = dgetrf(a[:, bi])
            if info > 0:
                raise np.linalg.LinAlgError("singular basis matrix")
            xb = dgetrs(lu, piv, b)[0]
            x[bi] = xb
            st["y"] = dgetrs(lu, piv, c[bi], trans=1)[0]
            d = c - a.T @ st["y"]
            cand = (d < -dual_tol) & ~basic & ~pinned
            if not cand.any():
                return
            if st["bland"]:
                q = int(np.nonzero(cand)[0][0])
            else:
                q = int(np.argmax(np.where(cand, np.abs(d), -1.0)))
            delta = dgetrs(lu, piv, a[:, q])[0]
            ratio = np.full(m, np.inf)
            blocks = ((delta > pivot_tol)
                      | ((delta < -pivot_tol) & pinned[bi]))
            np.divide(xb, delta, out=ratio, where=blocks)
            np.maximum(ratio, 0.0, out=ratio)
            step = float(ratio.min())
            if not np.isfinite(step):
                raise RuntimeError("objective unbounded below; the package "
                                   "solves only LPs with a cost >= 0")
            st["iterations"] += 1
            if step <= degen_tol:
                st["degenerate"] += 1
                if st["degenerate"] > bland_after:
                    st["bland"] = True
            rows = np.nonzero(ratio <= step + 1e-12 * (1.0 + step))[0]
            row = int(rows[np.argmin(bi[rows])])
            leave = int(bi[row])
            x[leave] = 0.0
            basic[leave] = False
            if leave >= k:
                pinned[leave] = True
            x[q] = step
            basic[q] = True
            bi[row] = q

    def solution(status, xk=None, value=None, violation=0.0, phase1=0):
        return {"status": status, "x": xk, "objective_value": value,
                "iterations": st["iterations"], "dual": st["y"],
                "max_violation": violation, "phase1_iterations": phase1,
                "degenerate": st["degenerate"], "bland": st["bland"],
                "basis": bi.copy()}

    phase1 = 0
    if np.any(bi >= k):
        phase(np.concatenate([np.zeros(k), np.ones(m)]))
        phase1 = st["iterations"]
        if float(x[k:].sum()) > b_tol:
            return solution("infeasible", phase1=phase1)
    pinned[k:] = True
    phase(np.concatenate([c_orig, np.zeros(m)]))
    xk = x[:k].copy()
    resid = float(np.abs(a[:, :k] @ xk - b).max(initial=0.0))
    breach = float(-xk.min(initial=0.0))
    return solution("optimal", xk, float(c_orig @ xk), max(resid, breach),
                    phase1)


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


def first_failure_every_column(n_cols, certificate_at):
    """(j, certificate_at(j)) for the first column j in index order whose
    certificate is not None, else (None, None): the theorem-a trial's
    failure search before it was bound-pruned, one LP per column.  The
    caller passes the package's certificate function, so witnesses can be
    compared bit for bit and this module still imports nothing from it."""
    for j in range(n_cols):
        cert = certificate_at(j)
        if cert is not None:
            return j, cert
    return None, None


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


def strict_dual_value(g, s_idx, sigma):
    """max -sigma'z_S over Gamma z = 0, ||z_C||_1 <= 1, C the columns off
    s_idx, by one HiGHS LP over (z_S free, z_C+, z_C- >= 0) with a budget
    row.  With Gamma_S of full column rank, a minimizer with support s_idx
    and signs sigma is the unique one iff this is below 1."""
    g = np.asarray(g, float)
    n_rows, n_cols = g.shape
    s_idx = np.asarray(s_idx, dtype=int)
    k = s_idx.size
    g_s, g_c = g[:, s_idx], np.delete(g, s_idx, axis=1)
    m = g_c.shape[1]
    c = np.concatenate([np.asarray(sigma, float), np.zeros(2 * m)])
    budget = np.concatenate([np.zeros(k), np.ones(2 * m)])[None, :]
    res = linprog(c, A_ub=budget, b_ub=[1.0],
                  A_eq=np.hstack([g_s, g_c, -g_c]), b_eq=np.zeros(n_rows),
                  bounds=[(None, None)] * k + [(0, None)] * (2 * m),
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


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


def classes_up_to_sign(g):
    """Class label per column, numbered by first column: j and k share one
    iff g[:, j] is g[:, k] or -g[:, k] bit for bit.  One dict over each
    column's bytes and its negation's; no sorting, no sign rule."""
    labels, seen, classes = [], {}, 0
    for col in np.asarray(g, float).T:
        label = seen.get(col.tobytes())
        if label is None:
            label = seen[col.tobytes()] = seen[(-col).tobytes()] = classes
            classes += 1
        labels.append(label)
    return labels


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


def afw_min_every_column(a_s, a_c, sigma, l_budget, gap_tol):
    """Away-step Frank-Wolfe for min ||A_s b_s - A_c b_c||^2 over the
    signed simplex x L*B1, pricing every column of A_c on every iteration:
    the package's solver before it ran over distinct columns.  Returns
    (f, beta_s, beta_c, iterations)."""
    n_s, n_c = a_s.shape[1], a_c.shape[1]
    cap = 100000

    def vertex_col(key):
        i, j, sj = key
        out = sigma[i] * a_s[:, i]
        if j >= 0:
            out = out - sj * l_budget * a_c[:, j]
        return out

    key0 = (0, 0, 1.0) if n_c else (0, -1, 0.0)
    cols = {key0: vertex_col(key0)}
    active = {key0: 1.0}
    r = cols[key0].copy()
    iters = 0
    while True:
        grad_s = 2.0 * (a_s.T @ r)
        grad_c = -2.0 * (a_c.T @ r) if n_c else None
        i_fw = int(np.argmin(sigma * grad_s))
        phi_fw = float(sigma[i_fw] * grad_s[i_fw])
        if n_c:
            j_fw = int(np.argmax(np.abs(grad_c)))
            sj_fw = -1.0 if grad_c[j_fw] > 0.0 else 1.0
            phi_fw += sj_fw * l_budget * float(grad_c[j_fw])
            fw_key = (i_fw, j_fw, sj_fw)
        else:
            fw_key = (i_fw, -1, 0.0)
        phi_at = {}
        for k in active:
            val = float(sigma[k[0]] * grad_s[k[0]])
            if k[1] >= 0:
                val += k[2] * l_budget * float(grad_c[k[1]])
            phi_at[k] = val
        phi_beta = sum(active[k] * phi_at[k] for k in active)
        gap = phi_beta - phi_fw
        if gap <= gap_tol:
            break
        if iters >= cap:
            raise RuntimeError(f"no convergence in {cap} iterations")
        away_key = max(active, key=lambda k: (phi_at[k], k))
        gap_away = phi_at[away_key] - phi_beta
        if gap >= gap_away:
            target = cols.get(fw_key)
            if target is None:
                target = vertex_col(fw_key)
            d_img = target - r
            step_max = 1.0
            away = False
        else:
            d_img = r - cols[away_key]
            alpha = active[away_key]
            step_max = alpha / (1.0 - alpha)
            away = True
        den = float(d_img @ d_img)
        if den <= 1e-300:
            step = step_max
        else:
            step = min(max(-float(r @ d_img) / den, 0.0), step_max)
        if away:
            for k in list(active):
                active[k] *= 1.0 + step
            active[away_key] -= step
        else:
            for k in list(active):
                active[k] *= 1.0 - step
            active[fw_key] = active.get(fw_key, 0.0) + step
            cols.setdefault(fw_key, target)
        for k in list(active):
            if active[k] <= 1e-14:
                del active[k]
        total = sum(active.values())
        for k in active:
            active[k] /= total
        r = np.zeros(a_s.shape[0])
        for k, wt in active.items():
            r += wt * cols[k]
        iters += 1

    beta_s = np.zeros(n_s)
    beta_c = np.zeros(n_c)
    for (i, j, sj), wt in active.items():
        beta_s[i] += wt * sigma[i]
        if j >= 0:
            beta_c[j] += wt * sj * l_budget
    return float(r @ r), beta_s, beta_c, iters


def compat_every_column(g, s, l_budget, gap_tol=1e-7):
    """(phi2, minimizer beta, iterations) of the compatibility constant by
    afw_min_every_column, both sign patterns, as the package computed it
    before it ran Frank-Wolfe over distinct columns."""
    g = np.asarray(g, float)
    s = sorted(s)
    comp = np.nonzero(~np.isin(np.arange(g.shape[1]), s))[0]
    a_s, a_c = g[:, s], g[:, comp]
    best, total_iters = None, 0
    for sigma in itertools.product((1.0, -1.0), repeat=len(s)):
        f, beta_s, beta_c, iters = afw_min_every_column(
            a_s, a_c, np.array(sigma), float(l_budget), gap_tol)
        total_iters += iters
        if best is None or f < best[0]:
            best = (f, beta_s, beta_c)
    _, beta_s, beta_c = best
    beta = np.zeros(g.shape[1])
    beta[s] = beta_s
    if comp.size:
        beta[comp] = beta_c
    resid = a_s @ beta_s - (a_c @ beta_c if comp.size else 0.0)
    return len(s) * float(resid @ resid), beta, total_iters


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
