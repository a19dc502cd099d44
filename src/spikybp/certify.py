"""ER(d) verdicts, failure certificates, and the quantitative side checks.

A failure certificate at a unit-l1 target v is a vector w supported off
supp(v) with ||w||_1 <= 1 and Gamma w = Gamma v: it makes v and a distinct
point share measurements and l1 budget, so basis pursuit cannot isolate v.
The exact ER(d) verdict goes through the null space property: ER(d) holds
iff for every kernel vector h and every |S| = d, ||h_S||_1 < ||h_{S^c}||_1,
i.e. iff max {sum_S s_i h_i : Gamma h = 0, ||h||_1 <= 1} < 1/2.  For d = 1
that maximum is 1/(1 + min_j r_j), with r_j the least l1 norm of a
representation of column j by the others: a projector-based dual lower
bound on every r_j orders the columns, and basis pursuit solves for r_j
only until the next bound reaches the least r_j found.  For d = 2 one
kernel LP per pair and sign pattern, up to h -> -h, gives the maximum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import rng, simplex
from .recovery import NoSolutionError, SparseVector, _entries, basis_pursuit

STRICT_MARGIN_TOL = 1e-7


@dataclass
class FailureCertificate:
    target_index_set: tuple[int, ...]
    target: SparseVector
    witness: np.ndarray
    residual: float
    l1_witness: float


@dataclass
class NspVerdict:
    d: int
    holds: bool
    worst_support: tuple[int, ...]
    worst_signs: tuple[int, ...]
    worst_value: float
    margin: float


@dataclass
class CompatibilityValue:
    s_set: tuple[int, ...]
    l_budget: float
    phi2: float
    minimizer_beta: np.ndarray
    iterations: int


class CompatibilityError(RuntimeError):
    """Frank-Wolfe did not reach gap_tol; carries the best value seen."""

    def __init__(self, message: str, phi2_best: float, gap: float):
        super().__init__(message)
        self.phi2_best = phi2_best
        self.gap = gap


def er_failure_certificate(gamma, v: SparseVector,
                           feas_tol: float = 1e-9) -> FailureCertificate | None:
    """Search for w on supp(v)^c with ||w||_1 <= 1 and Gamma w = Gamma v.

    Returns None when the LP is infeasible, which is NOT a proof that exact
    reconstruction holds at v; only er_check_nsp decides positively.
    """
    g = _entries(gamma)
    n_rows, n_cols = g.shape
    if v.dim != n_cols:
        raise ValueError("target dimension must match the matrix columns")
    if abs(v.l1() - 1.0) > 1e-9:
        raise ValueError("target must satisfy ||v||_1 = 1")
    in_j = np.zeros(n_cols, dtype=bool)
    in_j[list(v.support)] = True
    comp = np.nonzero(~in_j)[0]
    if comp.size == 0:
        return None
    y = g[:, list(v.support)] @ np.array(v.values)
    sub = g[:, comp]
    nc = comp.size
    # [sub, -sub | 0] w = y  and  sum(w+ + w-) + slack = 1
    a = np.zeros((n_rows + 1, 2 * nc + 1))
    a[:n_rows, :nc] = sub
    a[:n_rows, nc:2 * nc] = -sub
    a[n_rows, :] = 1.0
    b = np.concatenate([y, [1.0]])
    x = simplex.feasible_point(a, b, np.zeros(2 * nc + 1),
                               np.full(2 * nc + 1, np.inf), feas_tol)
    if x is None:
        return None
    w = np.zeros(n_cols)
    w[comp] = x[:nc] - x[nc:2 * nc]
    residual = float(np.abs(g @ w - y).max())
    return FailureCertificate(v.support, v, w, residual,
                              float(np.abs(w).sum()))


def er_check_nsp(gamma, d: int,
                 strict_margin_tol: float = STRICT_MARGIN_TOL) -> NspVerdict:
    """Exact ER(d) verdict via the null space property.

    worst_value is max {sum_S s_i h_i : Gamma h = 0, ||h||_1 <= 1} over
    |S| = d and signs s, and ER(d) holds iff it is below
    1/2 - strict_margin_tol.  d = 1 goes through the least-l1
    representation norms (_er1_worst), so worst_signs is the convention
    (1,); d = 2 solves one kernel LP per pair and sign pattern up to h -> -h.
    """
    g = _entries(gamma)
    n_cols = g.shape[1]
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if n_cols < d:
        raise ValueError("need at least d columns")
    if d == 1 and n_cols > 4096:
        raise ValueError("d=1 verdict limited to n <= 4096")
    if d == 2 and n_cols > 256:
        raise ValueError("d=2 verdict limited to n <= 256")
    if d == 1:
        worst_value, worst_support, worst_signs = _er1_worst(g)
    else:
        worst_value, worst_support, worst_signs = _er2_worst(g)
    margin = 0.5 - worst_value
    return NspVerdict(d, worst_value < 0.5 - strict_margin_tol,
                      worst_support, worst_signs, worst_value, margin)


def _er1_worst(g: np.ndarray):
    """(1/(1 + min_j r_j), (j,), (1,)) with r_j the least-l1 norm of a
    representation of column a_j by the other columns (inf if none).

    A kernel vector h with h_j = -1 has ||h_{-j}||_1 >= r_j, so
    max |h_j| / ||h||_1 = 1/(1 + r_j).  Linearly independent columns give
    r_j = inf for all j and no LP.  Otherwise each r_j has the dual lower
    bound <y_j, a_j> / max_{i != j} |<y_j, a_i>| for any y_j; with y_j the
    j-th row of pinv(Gamma), the products are row j of the projector onto
    the row space.  Basis pursuit then solves for r_j in increasing-bound
    order until the next bound reaches the least r_j found.
    """
    n_rows, n_cols = g.shape
    best, worst_j = math.inf, 0
    if np.linalg.matrix_rank(g) < n_cols:
        y = np.linalg.pinv(g, rcond=max(g.shape) * np.finfo(float).eps)
        p = y @ g
        # covers the rounding of each product, so bound_j <= r_j holds
        # and no denominator is zero unless y_j = 0 (then bound_j = 0)
        slack = (2.0 * n_rows * np.finfo(float).eps
                 * np.linalg.norm(y, axis=1)
                 * np.linalg.norm(g, axis=0).max())
        top = np.maximum(p.diagonal() - slack, 0.0)
        np.fill_diagonal(p, 0.0)
        den = np.abs(p).max(axis=1) + slack
        bound = np.divide(top, den, out=np.zeros(n_cols), where=den > 0.0)
        for j in np.argsort(bound, kind="stable"):
            if bound[j] >= best:
                break
            others = np.arange(n_cols) != j
            try:
                r = basis_pursuit(g[:, others], g[:, j]).l1_value
            except NoSolutionError:
                continue  # a_j is outside the span of the others
            if r < best:
                best, worst_j = r, int(j)
    return 1.0 / (1.0 + best), (worst_j,), (1,)


def _er2_worst(g: np.ndarray):
    """Max kernel LP value over pairs S and signs with s_1 = +1; the value
    of (S, -s) equals that of (S, s) under h -> -h."""
    n_rows, n_cols = g.shape
    a = np.zeros((n_rows + 1, 2 * n_cols + 1))
    a[:n_rows, :n_cols] = g
    a[:n_rows, n_cols:2 * n_cols] = -g
    a[n_rows, :] = 1.0
    b = np.zeros(n_rows + 1)
    b[n_rows] = 1.0
    worst = (-math.inf, (), ())
    for support in itertools.combinations(range(n_cols), 2):
        for signs in ((1, 1), (1, -1)):
            c = np.zeros(2 * n_cols + 1)
            for idx, s in zip(support, signs):
                c[idx] = -float(s)
                c[n_cols + idx] = float(s)
            sol = simplex.solve(simplex.LinearProgram(c, a, b))
            if sol.status != simplex.OPTIMAL:
                raise RuntimeError(f"kernel LP returned {sol.status}")
            if -sol.objective_value > worst[0]:
                worst = (-sol.objective_value, support, signs)
    return worst


def spike_event_probability(n_rows: int, n_cols: int, delta: float) -> float:
    """P(each fixed row has a witness column spiky there and clean elsewhere),
    i.e. 1 - (1 - (1-delta)^(N-1) delta)^(n-1)."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("n_rows and n_cols must be positive")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    per_col = delta * (1.0 - delta) ** (n_rows - 1)
    if per_col >= 1.0:
        return 1.0 if n_cols > 1 else 0.0
    return -math.expm1((n_cols - 1) * math.log1p(-per_col))


def clean_column_probability(n_rows: int, delta: float) -> float:
    """(1 - delta)^N: the probability a fixed column carries no spike."""
    if n_rows < 0:
        raise ValueError("n_rows must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if n_rows == 0:
        return 1.0
    if delta == 1.0:
        return 0.0
    return math.exp(n_rows * math.log1p(-delta))


def width_bound_check(vectors, big_r: float, n_dirs: int = 10000,
                      seed: int = 0) -> tuple[float, float, bool]:
    """One-sided inradius probe of absconv(v_1..v_N) against R/sqrt(N) - sqrt(N).

    vectors[i] must be R*e_i + y_i with ||y_i||_inf <= 1.  The sampled support
    min over directions can only overestimate the true inradius, so a failed
    check falsifies the bound while a pass is supporting evidence only.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError("need N vectors of dimension N")
    if big_r <= 0.0:
        raise ValueError("R must be positive")
    if n_dirs < 1:
        raise ValueError("n_dirs must be positive")
    perturb = v - big_r * np.eye(n)
    if np.abs(perturb).max() > 1.0 + 1e-9:
        raise ValueError("some ||v_i - R e_i||_inf exceeds 1")
    bound = big_r / math.sqrt(n) - math.sqrt(n)
    dirs = ndtri(rng.words_to_uniform(rng.entry_words(seed, n_dirs, n)))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    dirs /= norms[:, None]
    support = np.abs(dirs @ v.T).max(axis=1)
    sampled_min = float(support.min())
    return bound, sampled_min, sampled_min >= bound - 1e-9


def _afw_min(a_s: np.ndarray, a_c: np.ndarray, sigma: np.ndarray,
             l_budget: float, gap_tol: float):
    """Minimize ||A_s b_s - A_c b_c||^2 over the signed simplex x L*B1 product.

    Away-step Frank-Wolfe with exact line search; iterates are convex
    combinations of product vertices (sigma_i e_i, +-L e_j).
    """
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
            raise CompatibilityError(
                f"Frank-Wolfe gap {gap:.3e} above {gap_tol:.3e} "
                f"after {cap} iterations", float(r @ r), gap)
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
            step = step_max  # flat direction: pure weight shuffle
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


def compatibility_constant(gamma, s_set, l_budget: float,
                           gap_tol: float = 1e-7) -> CompatibilityValue:
    """phi2(L, S) = |S| * min ||Gamma b_S - Gamma b_{S^c}||_2^2 over
    ||b_S||_1 = 1, ||b_{S^c}||_1 <= L, minimized per sign pattern of b_S."""
    g = _entries(gamma)
    n_rows, n_cols = g.shape
    s = tuple(sorted(int(i) for i in s_set))
    if not 1 <= len(s) <= 2 or len(set(s)) != len(s):
        raise ValueError("S must contain 1 or 2 distinct indices")
    if any(not 0 <= i < n_cols for i in s):
        raise ValueError("S index out of range")
    if l_budget < 1.0:
        raise ValueError("L must be at least 1")
    if gap_tol <= 0.0:
        raise ValueError("gap_tol must be positive")
    in_s = np.zeros(n_cols, dtype=bool)
    in_s[list(s)] = True
    comp = np.nonzero(~in_s)[0]
    a_s = g[:, list(s)]
    a_c = g[:, comp]
    best = None
    total_iters = 0
    for sigma in itertools.product((1.0, -1.0), repeat=len(s)):
        f, beta_s, beta_c, iters = _afw_min(a_s, a_c, np.array(sigma),
                                            float(l_budget), gap_tol)
        total_iters += iters
        if best is None or f < best[0]:
            best = (f, beta_s, beta_c)
    _, beta_s, beta_c = best
    beta = np.zeros(n_cols)
    beta[list(s)] = beta_s
    if comp.size:
        beta[comp] = beta_c
    resid = a_s @ beta_s - (a_c @ beta_c if comp.size else 0.0)
    phi2 = len(s) * float(resid @ resid)
    return CompatibilityValue(s, float(l_budget), phi2, beta, total_iters)


def format_certificate(cert: FailureCertificate) -> str:
    witness = SparseVector.from_dense(cert.witness)
    return (f"target: {cert.target.format()}\n"
            f"witness: {witness.format()}\n"
            f"residual: {cert.residual:.17g}\n"
            f"l1_witness: {cert.l1_witness:.17g}\n")


def parse_certificate(text: str) -> FailureCertificate:
    fields = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    target = SparseVector.parse(fields["target"])
    witness = SparseVector.parse(fields["witness"]).to_dense()
    return FailureCertificate(target.support, target, witness,
                              float(fields["residual"]),
                              float(fields["l1_witness"]))


def format_verdict(verdict: NspVerdict) -> str:
    word = "holds" if verdict.holds else "fails"
    return (f"{word} d={verdict.d} margin={verdict.margin:.17g} "
            f"worst_S={list(verdict.worst_support)} "
            f"worst_signs={list(verdict.worst_signs)}")
