"""ER(d) verdicts, failure certificates, and the quantitative side checks.

A failure certificate at a unit-l1 target v is the vector w supported off
supp(v) with Gamma w = Gamma v and the least l1 norm r = l1_witness, found
by basis pursuit on the columns off supp(v), when r <= 1: it makes v and a
distinct point share measurements and l1 budget, so basis pursuit cannot
isolate v (r < 1 is a strict failure, r = 1 a tie).
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

from . import recovery
from .recovery import NoSolutionError, SparseVector, _entries, _kernel_lp
from .simplex import FEAS_TOL

STRICT_MARGIN_TOL = 1e-7

# Most sign vectors width_bound_check enumerates: N <= 17, with two
# N x 2^(N-1) arrays of about 9 MB each at the limit.
WIDTH_SIGN_BUDGET = 1 << 16


@dataclass
class FailureCertificate:
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


def er_failure_certificate(gamma, v: SparseVector) -> FailureCertificate | None:
    """The least-l1 w on supp(v)^c with Gamma w = Gamma v, if ||w||_1 <= 1.

    This is basis pursuit on the columns off supp(v), so l1_witness is the
    least l1 norm r of such a representation.  Returns None when
    r > 1 + simplex.FEAS_TOL (so a tie, r = 1, is a certificate) or no such
    w exists, which is NOT a proof that exact reconstruction holds at v;
    only er_check_nsp decides positively.
    """
    g = _entries(gamma)
    n_cols = g.shape[1]
    if v.dim != n_cols:
        raise ValueError("target dimension must match the matrix columns")
    if abs(v.l1() - 1.0) > 1e-9:
        raise ValueError("target must satisfy ||v||_1 = 1")
    comp = np.delete(np.arange(n_cols), v.support)
    if comp.size == 0:
        return None
    y = g[:, list(v.support)] @ np.array(v.values)
    try:
        result = recovery.basis_pursuit(g[:, comp], y)
    except NoSolutionError:
        return None
    if result.l1_value > 1.0 + FEAS_TOL:
        return None
    w = np.zeros(n_cols)
    w[comp] = result.minimizer
    residual = float(np.abs(g @ w - y).max())
    return FailureCertificate(v, w, residual, result.l1_value)


def er_check_nsp(gamma, d: int) -> NspVerdict:
    """Exact ER(d) verdict via the null space property.

    worst_value is max {sum_S s_i h_i : Gamma h = 0, ||h||_1 <= 1} over
    |S| = d and signs s, and ER(d) holds iff it is below
    1/2 - STRICT_MARGIN_TOL.  d = 1 goes through the least-l1
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
    return NspVerdict(d, worst_value < 0.5 - STRICT_MARGIN_TOL,
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
                r = recovery.basis_pursuit(g[:, others], g[:, j]).l1_value
            except NoSolutionError:
                continue  # a_j is outside the span of the others
            if r < best:
                best, worst_j = r, int(j)
    return 1.0 / (1.0 + best), (worst_j,), (1,)


def _er2_worst(g: np.ndarray):
    """Max kernel LP value over pairs S and signs with s_1 = +1; the value
    of (S, -s) equals that of (S, s) under h -> -h."""
    n_cols = g.shape[1]
    no_free = np.zeros(0, dtype=np.intp)
    worst = (-math.inf, (), ())
    for support in itertools.combinations(range(n_cols), 2):
        for signs in ((1, 1), (1, -1)):
            c = np.zeros(n_cols)
            c[list(support)] = signs
            value, _ = _kernel_lp(g, c, no_free)
            if value > worst[0]:
                worst = (value, support, signs)
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


def width_bound_check(vectors, big_r: float) -> tuple[float, float, bool]:
    """Exact inradius of absconv(v_1..v_N) against R/sqrt(N) - sqrt(N).

    vectors[i] must be R*e_i + y_i with ||y_i||_inf <= 1.  With V holding
    the vectors as rows, the support function at a unit u is ||V u||_inf, so
    the inradius is 1/max ||V^-1 s||_2 over the sign vectors s with s_1 = +1
    (the maximum of a convex function over the cube sits at a vertex).
    A singular V spans a flat body: inradius 0.  Returns (bound, inradius,
    inradius >= bound); N is limited by WIDTH_SIGN_BUDGET.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError("need N vectors of dimension N")
    if big_r <= 0.0:
        raise ValueError("R must be positive")
    perturb = v - big_r * np.eye(n)
    if np.abs(perturb).max() > 1.0 + 1e-9:
        raise ValueError("some ||v_i - R e_i||_inf exceeds 1")
    if 2 ** (n - 1) > WIDTH_SIGN_BUDGET:
        raise ValueError(f"N = {n} needs 2^{n - 1} sign vectors, more than "
                         f"WIDTH_SIGN_BUDGET = {WIDTH_SIGN_BUDGET}")
    bound = big_r / math.sqrt(n) - math.sqrt(n)
    signs = np.array([(1.0,) + s for s in
                      itertools.product((1.0, -1.0), repeat=n - 1)]).T
    try:
        inradius = 1.0 / float(np.linalg.norm(np.linalg.solve(v, signs),
                                              axis=0).max())
    except np.linalg.LinAlgError:
        inradius = 0.0
    return bound, inradius, inradius >= bound - 1e-9


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
    return FailureCertificate(target, witness,
                              float(fields["residual"]),
                              float(fields["l1_witness"]))


def format_verdict(verdict: NspVerdict) -> str:
    word = "holds" if verdict.holds else "fails"
    return (f"{word} d={verdict.d} margin={verdict.margin:.17g} "
            f"worst_S={list(verdict.worst_support)} "
            f"worst_signs={list(verdict.worst_signs)}")
