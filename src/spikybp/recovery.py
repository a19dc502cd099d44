"""Basis pursuit, per-target uniqueness certification, l0 brute force.

Basis pursuit solves min ||t||_1 subject to Gamma t = y as an LP over the
split t = t+ - t-, by sifting (column generation; Bixby, Gregory, Lustig,
Marsten & Shanno 1992): the simplex solves the LP on a working set of at
first SIFT_COLUMNS columns, one product Gamma'y prices every column per
round, and the loop stops when the full LP's dual check ||Gamma'y||_inf
<= 1 + simplex._DUAL_TOL holds.  Up to SIFT_COLUMNS columns the first
round is the whole LP.  The first round starts from a crash basis (a
pivoted QR of the working set), each later one from the last round's
basis, so phase 1 runs only on a rank-deficient working set.  Uniqueness
of its minimizer is decided exactly by one strict-dual LP on the
minimizer's support and signs, reduced to the kernel LP
max {c'z : A z = 0, ||z||_1 <= 1} (_kernel_lp) that the ER(2) verdict in
certify also solves, as basis pursuit on [A; c'] z = e_last (value 1/r),
so basis_pursuit builds every LP; l0 recovery enumerates supports of
growing size up to 2, all columns at once for size 1 and, for size 2, one
numpy block of closed-form 2x2 solves per class of columns equal up to
sign (column_classes), the fitting class pairs then expanded to their
member pairs.  At N = 3 a spiky column takes one of 64 value patterns, so
the 400 columns of a 3x400 theorem-a prefix form 4 or 5 classes, and 6
to 10 class pairs stand for 79,800 column pairs.

SparseVector's constructor checks what it is given, because parse and
from_dense take input from outside the program.  The l0 search builds its
solutions without those checks (_solution_list): at N = 3 columns collide
and one search returns thousands of solutions, and the checks cost more
than the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .ensemble import MeasurementMatrix

UNIQUE = "unique"
NOT_UNIQUE = "not_unique"
UNKNOWN = "unknown"

# Columns in basis pursuit's first working set.  The simplex prices every
# column on every pivot: a pivot costs about 185 us on a 3 x 2(10^4 - 1)
# LP, as wide as a theorem-a failure certificate, and 25 us on a 3 x 1024
# one (BENCH_pivot.json).  Over first sets of 32 to 1024 columns, rounds
# per LP fall as the set grows, and 256 or 512 keep pivots per LP near
# their least on 12 x 10^4 spiky (R = 4) and 24 x 10^4 Gaussian draws;
# the time per LP from 64 columns up differed by less than the host's
# noise (BENCH_sifting.json).  Up to 256 columns the first round is the
# whole LP, so the 10x20 and 12x63 LPs of the benchmark keep their pivot
# paths.
SIFT_COLUMNS = 256

# Most member pairs the size-2 l0 search returns.  Each costs about 520
# bytes in the returned list (2 x 800 Gaussian, y = (0.3, -0.7): 319,587
# pairs, 160 MB), so the list stays near 0.5 GB; l0_pairs returns 9-12 k.
L0_PAIR_BUDGET = 10**6


class NoSolutionError(RuntimeError):
    """y is not in the range of Gamma: basis pursuit has no feasible point."""


@dataclass(frozen=True)
class SparseVector:
    dim: int
    support: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        support = tuple(int(i) for i in self.support)
        values = tuple(float(v) for v in self.values)
        if len(support) != len(values):
            raise ValueError("support and values must have equal length")
        if len(set(support)) != len(support):
            raise ValueError("support indices must be distinct")
        if any(not 0 <= i < self.dim for i in support):
            raise ValueError("support index out of range")
        if any(v == 0.0 for v in values):
            raise ValueError("stored values must be nonzero")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("stored values must be finite")
        order = sorted(range(len(support)), key=lambda a: support[a])
        object.__setattr__(self, "support", tuple(support[a] for a in order))
        object.__setattr__(self, "values", tuple(values[a] for a in order))

    @classmethod
    def from_dense(cls, v, tol: float = 0.0) -> "SparseVector":
        v = np.asarray(v, dtype=np.float64)
        idx = np.nonzero(np.abs(v) > tol)[0]
        return cls(v.size, tuple(int(i) for i in idx),
                   tuple(float(v[i]) for i in idx))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        for i, v in zip(self.support, self.values):
            out[i] = v
        return out

    def l1(self) -> float:
        return float(sum(abs(v) for v in self.values))

    def format(self) -> str:
        body = ",".join(f"{i}:{v:.17g}" for i, v in zip(self.support, self.values))
        return f"{self.dim}; {body}" if body else f"{self.dim};"

    @classmethod
    def parse(cls, text: str) -> "SparseVector":
        head, sep, body = text.partition(";")
        if not sep:
            raise ValueError("expected 'dim; index:value,...'")
        dim = int(head.strip())
        body = body.strip()
        if not body:
            return cls(dim, (), ())
        support, values = [], []
        for item in body.split(","):
            i, _, v = item.partition(":")
            support.append(int(i.strip()))
            values.append(float(v.strip()))
        return cls(dim, tuple(support), tuple(values))


@dataclass
class RecoveryResult:
    minimizer: np.ndarray
    l1_value: float
    unique: str = UNKNOWN
    witness_alt: np.ndarray | None = None


def _entries(gamma) -> np.ndarray:
    if isinstance(gamma, MeasurementMatrix):
        return gamma.entries
    return np.atleast_2d(np.asarray(gamma, dtype=np.float64))


def _system(gamma, y) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma's entries, y as a float vector), checking y: N finite values."""
    g = _entries(gamma)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (g.shape[0],):
        raise ValueError("y length must match the number of matrix rows")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    return g, y


def _crash_basis(g_w: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """A feasible start basis for the split LP over [Gamma_W, -Gamma_W].

    B is the first m columns of a QR of Gamma_W with column pivoting
    (LAPACK dgeqp3), and each enters as t+ or t- by the sign of its
    coefficient in B^-1 y, so every basic value is >= 0.  dgesv solves
    with the same LU arithmetic as the simplex, whose own B^-1 y therefore
    has the same magnitudes.  None when the pivoted R shows rank below m
    (|R_mm| <= max(m, |W|) * eps * |R_11|, numpy.linalg.matrix_rank's
    tolerance): phase 1 then starts from the artificials.
    """
    n_rows, width = g_w.shape
    if width < n_rows:
        return None
    qr, jpvt, _, _, info = simplex._LAPACK.dgeqp3(g_w)
    r = np.abs(np.diag(qr))
    if info != 0 or r[-1] <= r[0] * max(n_rows, width) * np.finfo(np.float64).eps:
        return None
    cols = jpvt[:n_rows].astype(np.intp) - 1  # dgeqp3 counts from 1
    _, _, t, info = simplex._LAPACK.dgesv(g_w[:, cols], y)
    if info != 0:
        return None
    return np.where(t >= 0.0, cols, width + cols)


def basis_pursuit(gamma, y) -> RecoveryResult:
    """min ||t||_1 s.t. Gamma t = y, by sifting; unique left Unknown.

    Each round solves min sum(t+ + t-) s.t. Gamma_W (t+ - t-) = y, t+- >= 0
    on a working set W of columns, in index order, then prices every column
    with one product Gamma'y_W of the round's duals.  Column j outside W
    prices out when |a_j'y_W| > 1 + simplex._DUAL_TOL (after an infeasible
    round, with its phase-1 duals, when |a_j'y_W| > simplex._DUAL_TOL); the
    2m most violated of those join W, and the loop stops when none does.
    That stop is the simplex's own optimality test over every column, so
    the value is the full LP's, and the minimizer is a vertex with at most
    m nonzeros.  An infeasible round with nothing to add is a Farkas
    certificate for the full system: NoSolutionError.

    W starts as every column when there are at most SIFT_COLUMNS, so the
    first round is the whole LP and is the last, with no pricing product;
    otherwise as the SIFT_COLUMNS columns with the largest |a_j'y|.  W only
    grows, and a round on every column is the last.

    No round starts from the all-artificial basis unless it must.  The
    first starts from a crash basis (_crash_basis), and runs phase 1 only
    when Gamma_W has rank below m.  Each later round starts from the last
    round's final basis: the new columns enter nonbasic at 0, so its basic
    values, and its feasibility, are unchanged.  After an infeasible round
    that basis holds artificials, and phase 1 resumes from it.
    """
    g, y = _system(gamma, y)
    n_rows, n_cols = g.shape
    if n_cols <= SIFT_COLUMNS:
        work = np.arange(n_cols)
    else:
        work = np.sort(np.argpartition(-np.abs(g.T @ y), SIFT_COLUMNS)
                       [:SIFT_COLUMNS])
    g_w = g[:, work]
    basis = _crash_basis(g_w, y)
    while True:
        sol = simplex.solve(simplex.LinearProgram(
            np.ones(2 * work.size), np.hstack([g_w, -g_w]), y), basis)
        if work.size == n_cols:  # the round's own test covered every column
            break
        price = np.abs(g.T @ sol.dual)
        if sol.status == simplex.OPTIMAL:
            price -= 1.0
        price[work] = 0.0  # the round's own test already passed these
        add = np.nonzero(price > simplex._DUAL_TOL)[0]
        if add.size == 0:
            break
        if add.size > 2 * n_rows:
            add = add[np.argpartition(-price[add], 2 * n_rows)[:2 * n_rows]]
        grown = np.union1d(work, add)
        # old index -> new index in the [W, -W | artificials] layout
        at = np.searchsorted(grown, work)
        basis = np.concatenate([at, grown.size + at,
                                2 * grown.size + np.arange(n_rows)])[sol.basis]
        work = grown
        g_w = g[:, work]
    if sol.status == simplex.INFEASIBLE:
        raise NoSolutionError("y is not in the range of Gamma")
    t = np.zeros(n_cols)
    t[work] = sol.x[:work.size] - sol.x[work.size:]
    return RecoveryResult(t, sol.objective_value, UNKNOWN)


def support_tol(x) -> float:
    """The entries of x above this, simplex.FEAS_TOL relative to its
    largest |x_i|, are its support: the one rule of certify_uniqueness
    and of the supports the CLI prints."""
    return simplex.FEAS_TOL * float(np.abs(x).max(initial=0.0))


def _kernel_lp(a: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """(max c'z, z) over A z = 0, ||z||_1 <= 1, as basis pursuit.

    The value is 1/r with r = min {||z||_1 : [A; c'] z = e_last}, attained
    at z/r.  A stacked system with no solution means c is orthogonal to
    ker A: the value is 0, at z = 0.
    """
    e_last = np.zeros(a.shape[0] + 1)
    e_last[-1] = 1.0
    try:
        bp = basis_pursuit(np.vstack([a, c]), e_last)
    except NoSolutionError:
        return 0.0, np.zeros(c.size)
    return 1.0 / bp.l1_value, bp.minimizer / bp.l1_value


def certify_uniqueness(gamma, y, result: RecoveryResult) -> RecoveryResult:
    """Resolve the unique field of a basis-pursuit result by the strict-dual test.

    With S the support of x* = result.minimizer (support_tol), C the
    rest and sigma = sign(x*_S), x* is the unique minimizer iff Gamma_S
    has full column rank and

        value = max { -sigma'z_S : Gamma z = 0, ||z_C||_1 <= 1 } < 1

    (Fuchs 2004; Zhang, Yin & Cheng 2015).  The verdict is UNIQUE iff the
    rank holds and value < 1/(1 + simplex.FEAS_TOL), certify's tie band.
    The complete QR Gamma_S = [Q1 Q2][R1; 0] eliminates
    z_S = -R1^-1 Q1'Gamma_C z_C: value = _kernel_lp(Q2'Gamma_C, c) with
    c = Gamma_C'Q1 R1^-T sigma, one basis pursuit.  None runs when the rank
    fails, or when ||c||_inf is below the same bound: dropping the constraint
    Q2'Gamma_C z_C = 0 can only raise the maximum, so value <= ||c||_inf,
    and the verdict is UNIQUE, as the LP's would be.
    A NOT_UNIQUE result carries witness_alt = x* + eps*z, with z the
    optimal kernel direction (or a null vector of Gamma_S) and eps <= 1
    the largest step that flips no sign on S: Gamma w = y and
    ||w||_1 <= l1_value + eps*(1 - value).
    """
    g, _ = _system(gamma, y)
    n_cols = g.shape[1]
    x = result.minimizer
    on_s = np.abs(x) > support_tol(x)
    s_idx = np.nonzero(on_s)[0]
    sigma = np.sign(x[s_idx])
    k = s_idx.size

    g_s = g[:, s_idx]
    z = np.zeros(n_cols)
    if np.linalg.matrix_rank(g_s) < k:
        null = np.linalg.svd(g_s)[2][-1]
        z[s_idx] = -null if sigma @ null > 0.0 else null
    else:
        q, r = np.linalg.qr(g_s, mode="complete")
        q1, q2, r1 = q[:, :k], q[:, k:], r[:k]
        g_c = g[:, ~on_s]
        c = g_c.T @ (q1 @ np.linalg.solve(r1.T, sigma))
        bound = 1.0 / (1.0 + simplex.FEAS_TOL)
        if np.abs(c).max(initial=0.0) < bound:
            return replace(result, unique=UNIQUE, witness_alt=None)
        value, z_c = _kernel_lp(q2.T @ g_c, c)
        if value < bound:
            return replace(result, unique=UNIQUE, witness_alt=None)
        z[~on_s] = z_c
        z[s_idx] = -np.linalg.solve(r1, q1.T @ (g_c @ z_c))
    shrink = s_idx[sigma * z[s_idx] < 0.0]
    eps = float(np.min(np.abs(x[shrink] / z[shrink]), initial=1.0))
    return replace(result, unique=NOT_UNIQUE, witness_alt=x + eps * z)


def column_classes(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, label, sign): the columns of g in classes up to sign.

    Each column is flipped so that its first nonzero entry is positive (a
    zero column so that its first entry is +0.0), and two columns are in
    one class when the flipped columns are equal bit for bit: so exactly
    when one is the other or its negation, bit for bit.  first holds each
    class's first column, in increasing order, so classes are numbered by
    their first column; label[j] is the class of column j and sign[j] is
    +-1.0 with g[:, j] == sign[j] * g[:, first[label[j]]] bit for bit.
    np.bincount(label) gives the multiplicities.
    """
    g = np.ascontiguousarray(_entries(g))  # rows are the sort keys
    n_cols = g.shape[1]
    lead = g[0]  # after the loop: the first nonzero entry, else the first
    for row in g[::-1]:
        lead = np.where(row != 0.0, row, lead)
    flip = np.signbit(lead)
    # a flip flips each entry's sign bit; keys compare bits: 0.0 != -0.0
    keys = g.view(np.int64) ^ (flip.astype(np.int64) << 63)
    order = np.lexsort(keys[::-1])  # stable, so each run starts at its first
    run = np.take(keys, order, axis=1)
    new = np.ones(n_cols, dtype=bool)
    new[1:] = (run[:, 1:] != run[:, :-1]).any(axis=0)
    heads = order[new]
    by_first = np.argsort(heads)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(by_first.size)
    label = np.empty(n_cols, dtype=np.intp)
    label[order] = number[np.cumsum(new) - 1]
    first = heads[by_first]
    sign = np.where(flip ^ flip[first][label], -1.0, 1.0)
    return first, label, sign


def _solution_list(n_cols: int, supports, values) -> list[SparseVector]:
    """SparseVectors from tuples of plain ints and floats (zipped .tolist()
    columns of hit indices and coefficients), without the constructor's
    checks: l0_brute_force makes every support sorted, distinct, in range,
    and every value finite and nonzero (see there)."""
    found = []
    for supp, vals in zip(supports, values):
        v = object.__new__(SparseVector)
        object.__setattr__(v, "dim", n_cols)
        object.__setattr__(v, "support", supp)
        object.__setattr__(v, "values", vals)
        found.append(v)
    return found


def _pair_solutions(g, y, thresh, norms2, dots) -> list[SparseVector]:
    """Every pair (i, j), i < j, whose columns fit y within thresh, in
    itertools order: class pairs solved over the representatives, then
    expanded to their member pairs (see l0_brute_force), with
    _size_one_hits' norms2 and dots."""
    n_rows, n_cols = g.shape
    first, label, sign = column_classes(g)
    reps = np.take(g, first, axis=1)  # C order, like g: g[:, first] is F order
    # products over every column, indexed: a product over a few
    # representatives can take another BLAS kernel and round differently
    norms2, dots = norms2[first], dots[first]
    rcond2 = (np.finfo(np.float64).eps * max(n_rows, 2)) ** 2
    hit_a, hit_b, coef_a, coef_b = [], [], [], []
    for a in range(first.size - 1):
        a2, d_a, g_a = norms2[a], dots[a], reps[:, a]
        c2, d_b, g_b = norms2[a + 1:], dots[a + 1:], reps[:, a + 1:]
        b = g_a @ g_b
        det = a2 * c2 - b * b
        # the Gram's largest eigenvalue; sigma ratio^2 = lambda_min/lambda_max
        lam = 0.5 * (a2 + c2) + np.hypot(0.5 * (a2 - c2), b)
        full = det > rcond2 * lam * lam
        safe = np.where(full, det, 1.0)
        t_a = (c2 * d_a - b * d_b) / safe
        t_b = (a2 * d_b - b * d_a) / safe
        res = np.linalg.norm(y[:, None] - g_a[:, None] * t_a - g_b * t_b, axis=0)
        hits = np.nonzero(full & (res <= thresh) & (t_a != 0.0) & (t_b != 0.0))[0]
        if hits.size:
            hit_a.append(np.full(hits.size, a))
            hit_b.append(a + 1 + hits)
            coef_a.append(t_a[hits])
            coef_b.append(t_b[hits])
    if not hit_a:
        return []
    hit_a, hit_b = np.concatenate(hit_a), np.concatenate(hit_b)
    # member pair q of class pair h: row q // size_b of class a, q % size_b of b
    members = np.argsort(label, kind="stable")
    size = np.bincount(label)
    start = np.cumsum(size) - size
    count = size[hit_a] * size[hit_b]
    total = int(count.sum())
    if total > L0_PAIR_BUDGET:
        raise ValueError(f"{total} column pairs fit y, more than "
                         f"L0_PAIR_BUDGET = {L0_PAIR_BUDGET}")
    h = np.repeat(np.arange(count.size), count)
    q = np.arange(h.size) - np.repeat(np.cumsum(count) - count, count)
    i = members[start[hit_a][h] + q // size[hit_b][h]]
    j = members[start[hit_b][h] + q % size[hit_b][h]]
    t_i = sign[i] * np.concatenate(coef_a)[h]
    t_j = sign[j] * np.concatenate(coef_b)[h]
    swap = i > j
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))
    return _solution_list(
        n_cols, zip(lo[order].tolist(), hi[order].tolist()),
        zip(np.where(swap, t_j, t_i)[order].tolist(),
            np.where(swap, t_i, t_j)[order].tolist()))


def _size_one_hits(g, y, res_tol: float = 1e-8):
    """(hits, coef, norms2, dots): the columns j whose coefficient
    coef[j] = dots[j]/norms2[j] = a_j'y/||a_j||^2 fits y as l0_brute_force's
    size 1 does, in index order.  hits is empty when y itself is within the
    threshold of 0, where the empty support is the only minimal one."""
    norm_y = float(np.linalg.norm(y))
    thresh = res_tol * (1.0 + norm_y)
    norms2 = np.einsum("ij,ij->j", g, g)
    dots = g.T @ y
    ok = (norms2 > 0.0) & (norm_y > thresh)
    coef = np.zeros(g.shape[1])
    coef[ok] = dots[ok] / norms2[ok]
    res = np.linalg.norm(y[:, None] - g * coef, axis=0)
    hits = np.nonzero(ok & (res <= thresh) & (coef != 0.0))[0]
    return hits, coef, norms2, dots


def l0_brute_force(gamma, y, d_max: int, res_tol: float = 1e-8) -> list[SparseVector]:
    """Every minimal support of size <= d_max <= 2 solving Gamma t = y.

    Stops at the first size s with a least-squares residual below
    res_tol*(1 + ||y||_2) and returns every support of that size, in
    itertools.combinations order.  More than one returned support means l0
    recovery is not unique.

    Every residual is the explicit norm ||y - Gamma_S t||, never
    ||y||^2 - t.(Gamma_S'y), which loses half the digits.  Size 1 uses the
    closed-form coefficient of each column.  Size 2 works over the classes
    of columns equal up to sign (column_classes): a member is +-its class's
    first column bit for bit, so a pair's Gram system and residual are
    those of its classes' first columns, and its coefficients theirs times
    the members' signs.  It solves the class pairs (a, b > a) of one class
    a at once over the first columns, each 2x2 Gram system by Cramer's
    rule, then expands each fitting class pair to its member pairs and
    sorts them; memory is O(N n) plus the output (at most L0_PAIR_BUDGET
    pairs, else ValueError).  A member pair sums its
    residual's terms in class order, not column order, so only a residual
    within rounding of the threshold could decide otherwise.  Pairs in one
    class, and rank-deficient pairs (sigma_min/sigma_max <= eps*max(N, 2),
    lstsq's default rcond), are skipped: two parallel columns span at most
    the line of one of them, where size 1 has already looked, so such a
    pair is never a minimal solution.

    The solutions skip SparseVector's checks, which hold by construction:
    size-1 indices come from np.nonzero, and a pair is (min, max) of two
    columns in different classes, so a support is sorted, distinct and in
    range; the hit masks keep only nonzero coefficients, and a sign keeps
    them nonzero; and a NaN or infinite coefficient makes the residual NaN
    or infinite, which fails residual <= threshold.  The list equals,
    object by object and in order, what the checking constructor would
    build.
    """
    g, y = _system(gamma, y)
    n_rows, n_cols = g.shape
    if not 0 <= d_max <= 2:
        raise ValueError("d_max must lie in [0, 2]")
    if n_rows < d_max:
        raise ValueError("d_max cannot exceed the number of rows")
    norm_y = float(np.linalg.norm(y))
    thresh = res_tol * (1.0 + norm_y)
    if norm_y <= thresh:
        return [SparseVector(n_cols, (), ())]
    if d_max >= 1:
        hits, coef, norms2, dots = _size_one_hits(g, y, res_tol)
        if hits.size:
            return _solution_list(n_cols, zip(hits.tolist()),
                                  zip(coef[hits].tolist()))
        if d_max == 2:
            return _pair_solutions(g, y, thresh, norms2, dots)
    return []


def write_vector_text(v, path) -> None:
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    with open(path, "w") as f:
        f.write(" ".join(f"{x:.17g}" for x in v) + "\n")


def read_vector_text(path) -> np.ndarray:
    with open(path) as f:
        return np.atleast_1d(np.loadtxt(f, dtype=np.float64))
