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
representation of column j by the others (a kernel vector h with
h_j = -1 has ||h_{-j}||_1 >= r_j), found by er1_search.  first_failure
finds the trial's first j with r_j <= 1 through er_failure_certificate,
the one builder of certificates.  For d = 2 one kernel LP per pair and
sign pattern, up to h -> -h, gives the maximum (recovery._kernel_lp).
Every r-against-1 verdict, uniqueness too (recovery.certify_uniqueness),
has one tie band, tau = simplex.FEAS_TOL read at call time: each tests
r > 1 + tau in its own variable, so at d = 1 the three agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import recovery, simplex
from .recovery import NoSolutionError, SparseVector, _entries, _kernel_lp
from .simplex import IterationLimitError

PROJECTOR_BLOCK = 1 << 22  # entries of pinv(Gamma) Gamma formed at once
FW_GAP_TOL = 1e-7  # Frank-Wolfe's stopping gap (_afw_min)
FW_ITERATION_CAP = 100000


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


def er_failure_certificate(gamma, v: SparseVector) -> FailureCertificate | None:
    """The least-l1 w on supp(v)^c with Gamma w = Gamma v, if ||w||_1 <= 1.

    This is basis pursuit on the columns off supp(v), so l1_witness is the
    least l1 norm r of such a representation.  Returns None when
    r > 1 + simplex.FEAS_TOL (so a tie is a certificate) or no such
    w exists.  At a 1-sparse v, None proves v the unique basis-pursuit
    minimizer; at a wider v it proves nothing, and er_check_nsp decides.
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
    if result.l1_value > 1.0 + simplex.FEAS_TOL:
        return None
    w = np.zeros(n_cols)
    w[comp] = result.minimizer
    residual = float(np.abs(g @ w - y).max())
    return FailureCertificate(v, w, residual, result.l1_value)


def first_failure(gamma) -> tuple[int | None, FailureCertificate | None]:
    """(j, er_failure_certificate at e_j) for the first column j in index
    order that has one, else (None, None): the theorem-a trial's search.
    It skips the columns whose bound_j <= r_j exceeds 1 + simplex.FEAS_TOL."""
    g = _entries(gamma)
    n_cols = g.shape[1]
    for j, _ in _er1_columns(g, 1.0 + simplex.FEAS_TOL):
        cert = er_failure_certificate(g, SparseVector(n_cols, (j,), (1.0,)))
        if cert is not None:
            return j, cert
    return None, None


def er_check_nsp(gamma, d: int) -> NspVerdict:
    """Exact ER(d) verdict via the null space property.

    worst_value is max {sum_S s_i h_i : Gamma h = 0, ||h||_1 <= 1} over
    |S| = d and signs s, and ER(d) holds iff it is below 1/(2 + tau),
    tau = simplex.FEAS_TOL.  d = 1 reads 1/(1 + min_j r_j) off er1_search
    (so it holds iff min_j r_j > 1 + tau; worst_signs is (1,)); d = 2
    solves one kernel LP per pair and sign pattern.
    """
    g = _entries(gamma)
    n_cols = g.shape[1]
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if n_cols < d:
        raise ValueError("need at least d columns")
    if d == 2 and n_cols > 256:
        raise ValueError("d=2 verdict limited to n <= 256")
    if d == 1:
        j, r = er1_search(g)
        worst_value, worst_support, worst_signs = 1.0 / (1.0 + r), (j,), (1,)
    else:
        worst_value, worst_support, worst_signs = _er2_worst(g)
    return NspVerdict(d, worst_value < 1.0 / (2.0 + simplex.FEAS_TOL),
                      worst_support, worst_signs, worst_value,
                      0.5 - worst_value)


def er1_search(gamma):
    """(j, r_j) for the column j with the least r_j, solving columns by
    increasing bound until the next bound reaches the least r_j; (0, inf)
    if every r_j is inf."""
    g = _entries(gamma)
    best = (0, math.inf)
    cols = np.arange(g.shape[1])
    for j, bound_j in _er1_columns(g, None):
        if bound_j >= best[1]:
            break
        try:
            result = recovery.basis_pursuit(g[:, np.delete(cols, j)], g[:, j])
        except NoSolutionError:
            continue  # a_j is outside the span of the others
        if result.l1_value < best[1]:
            best = (j, result.l1_value)
    return best


def _er1_columns(g: np.ndarray, tau: float | None):
    """(j, bound_j <= r_j) for the columns er1_search (no tau) and
    first_failure solve, in order: bound_j = <y_j, a_j> / max_{i != j}
    |<y_j, a_i>|, y_j row j of pinv(Gamma), from pinv(Gamma) Gamma in
    blocks of PROJECTOR_BLOCK.  With a tau, column 0 comes first (on
    theorem-a matrices it almost always fails), then bound_j <= tau in
    index order."""
    n_rows, n_cols = g.shape
    if tau is not None:
        yield 0, 0.0
    if n_cols <= n_rows and np.linalg.matrix_rank(g) == n_cols:
        return
    y = np.linalg.pinv(g, rcond=max(g.shape) * np.finfo(float).eps)
    # covers the rounding of each product, so bound_j <= r_j holds
    # and no denominator is zero unless y_j = 0 (then bound_j = 0)
    slack = (2.0 * n_rows * np.finfo(float).eps
             * np.linalg.norm(y, axis=1)
             * np.linalg.norm(g, axis=0).max())
    bound = np.zeros(n_cols)
    step = max(1, PROJECTOR_BLOCK // n_cols)
    for lo in range(0, n_cols, step):
        p = y[lo:lo + step] @ g  # rows lo.. of the projector
        top = np.maximum(p[:, lo:].diagonal() - slack[lo:lo + step], 0.0)
        np.fill_diagonal(p[:, lo:], 0.0)
        den = np.abs(p, out=p).max(axis=1) + slack[lo:lo + step]
        np.divide(top, den, out=bound[lo:lo + step], where=den > 0.0)
    order = (np.argsort(bound, kind="stable") if tau is None
             else np.flatnonzero(bound[1:] <= tau) + 1)
    yield from zip(order.tolist(), bound[order].tolist())


def _er2_worst(g: np.ndarray):
    """Max kernel LP value over pairs S and signs with s_1 = +1; the value
    of (S, -s) equals that of (S, s) under h -> -h."""
    n_cols = g.shape[1]
    worst = (-math.inf, (), ())
    for support in itertools.combinations(range(n_cols), 2):
        for signs in ((1, 1), (1, -1)):
            c = np.zeros(n_cols)
            c[list(support)] = signs
            value, _ = _kernel_lp(g, c)
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


def _afw_min(a_s: np.ndarray, a_u: np.ndarray, sigma: np.ndarray,
             l_budget: float):
    """Minimize ||A_s b_s - A_u b_u||^2 over the signed simplex x L*B1 product.

    Away-step Frank-Wolfe with exact line search; iterates are convex
    combinations of product vertices (sigma_i e_i, +-L e_u).  The columns
    of a_u are one column per class of A_c up to sign
    (compatibility_constant), the class's first column, in increasing
    order, and a vertex on one stands for a vertex on that first column.
    A column and its negation have the same |grad| bit for bit, and +-L
    covers both signs, so argmax over |grad_u| returns the first class at
    the maximum, whose first column is the smallest column at it, which
    is argmax over every column of A_c.  So the iterates are bit for bit
    those of a run over every column, at a dozen columns per iteration
    instead of 10^4 on a theorem-a matrix, as long as BLAS gives each
    column's product the same bits wherever the column sits in the matrix.
    OpenBLAS 0.3.31 (numpy 2.4, Haswell kernels) does for up to 7 rows.
    From 8 rows on it can round a product differently by position, and
    the run, still a Frank-Wolfe run, can then end a few bits away from
    the run over every column.
    """
    n_s, n_u = a_s.shape[1], a_u.shape[1]
    sig = sigma.tolist()

    def vertex_col(key):
        i, u, su = key
        out = sigma[i] * a_s[:, i]
        if u >= 0:
            out = out - su * l_budget * a_u[:, u]
        return out

    key0 = (0, 0, 1.0) if n_u else (0, -1, 0.0)
    cols = {key0: vertex_col(key0)}
    active = {key0: 1.0}
    r = cols[key0].copy()
    iters = 0
    while True:
        grad_s = (2.0 * (a_s.T @ r)).tolist()
        phi_s = [sg * gs for sg, gs in zip(sig, grad_s)]
        i_fw = phi_s.index(min(phi_s))
        phi_fw = phi_s[i_fw]
        if n_u:
            grad = -2.0 * (a_u.T @ r)
            u_fw = int(np.argmax(np.abs(grad)))
            grad_u = grad.tolist()
            su_fw = -1.0 if grad_u[u_fw] > 0.0 else 1.0
            phi_fw += su_fw * l_budget * grad_u[u_fw]
            fw_key = (i_fw, u_fw, su_fw)
        else:
            fw_key = (i_fw, -1, 0.0)
        phi_at = {}
        for k in active:
            val = phi_s[k[0]]
            if k[1] >= 0:
                val += k[2] * l_budget * grad_u[k[1]]
            phi_at[k] = val
        phi_beta = sum(active[k] * phi_at[k] for k in active)
        gap = phi_beta - phi_fw
        if gap <= FW_GAP_TOL:
            break
        if iters >= FW_ITERATION_CAP:
            raise IterationLimitError(
                f"Frank-Wolfe gap {gap:.3e} above {FW_GAP_TOL:.3e} "
                f"after {FW_ITERATION_CAP} iterations")
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
    beta_u = np.zeros(n_u)
    for (i, u, su), wt in active.items():
        beta_s[i] += wt * sigma[i]
        if u >= 0:
            beta_u[u] += wt * su * l_budget
    return float(r @ r), beta_s, beta_u, iters


def compatibility_constant(gamma, s_set, l_budget: float) -> CompatibilityValue:
    """phi2(L, S) = |S| * min ||Gamma b_S - Gamma b_{S^c}||_2^2 over
    ||b_S||_1 = 1, ||b_{S^c}||_1 <= L, minimized per sign pattern of b_S.

    Frank-Wolfe runs over one off-support column per class up to sign
    (recovery.column_classes), found once and shared by both sign patterns,
    and the minimizer puts each class's weight on its first column.  At
    N = 3 the 10^4 columns of a theorem-a matrix fall into about a dozen
    classes (see _afw_min).  Each run stops at a gap of FW_GAP_TOL, or
    raises IterationLimitError after FW_ITERATION_CAP iterations.
    """
    g = _entries(gamma)
    n_rows, n_cols = g.shape
    s = tuple(sorted(int(i) for i in s_set))
    if not 1 <= len(s) <= 2 or len(set(s)) != len(s):
        raise ValueError("S must contain 1 or 2 distinct indices")
    if any(not 0 <= i < n_cols for i in s):
        raise ValueError("S index out of range")
    if not 1.0 <= l_budget < math.inf:
        raise ValueError("L must be finite and at least 1")
    in_s = np.zeros(n_cols, dtype=bool)
    in_s[list(s)] = True
    comp = np.nonzero(~in_s)[0]
    a_s = g[:, list(s)]
    a_c = g[:, comp]
    first = recovery.column_classes(a_c)[0]
    if first.size == 1:
        # a lone class stays split into its columns: numpy computes a
        # one-column matrix-vector product with another kernel, whose bits
        # can differ from the ones a column gets inside a wider one
        first = np.arange(comp.size)
    a_u = g[:, comp[first]]  # gathered like a_c, so products keep their bits
    best = None
    total_iters = 0
    for sigma in itertools.product((1.0, -1.0), repeat=len(s)):
        f, beta_s, beta_u, iters = _afw_min(a_s, a_u, np.array(sigma),
                                            float(l_budget))
        total_iters += iters
        if best is None or f < best[0]:
            best = (f, beta_s, beta_u)
    _, beta_s, beta_u = best
    beta_c = np.zeros(comp.size)
    beta_c[first] = beta_u
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
