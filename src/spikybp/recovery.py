"""Basis pursuit, per-target uniqueness certification, l0 brute force.

Basis pursuit solves min ||t||_1 subject to Gamma t = y as an LP over the
split t = t+ - t-, by sifting (column generation; Bixby, Gregory, Lustig,
Marsten & Shanno 1992): the simplex solves the LP on a working set of at
first SIFT_COLUMNS columns, one product Gamma'y prices every column per
round, and the loop stops when the full LP's dual check ||Gamma'y||_inf
<= 1 + simplex._DUAL_TOL holds.  Up to SIFT_COLUMNS columns the first
round is the whole LP.  Uniqueness of its minimizer is decided exactly by
one strict-dual LP on the minimizer's support and signs, an instance of the
kernel LP max {c'z : Gamma z = 0, ||z_C||_1 <= 1} (_kernel_lp) that the
ER(2) verdict in certify also solves; l0 recovery enumerates
supports of growing size, all columns at once for size 1, one numpy block
of closed-form 2x2 solves per column for size 2, and one solve per triple
for size 3, within a budget of L0_TRIPLE_BUDGET triples.

SparseVector's constructor checks what it is given, because parse and
from_dense take input from outside the program.  The l0 search builds its
solutions without those checks (_solution_list): at N = 3 columns collide
and one search returns thousands of solutions, and the checks cost more
than the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .ensemble import MeasurementMatrix

UNIQUE = "unique"
NOT_UNIQUE = "not_unique"
UNKNOWN = "unknown"

UNIQUENESS_TOL = 1e-6

# Columns in basis pursuit's first working set.  The simplex prices every
# column on every pivot: a traced pivot costs about 1 ms on the
# 3 x 2(10^4 - 1) LP of a theorem-a failure certificate, 0.16 ms with 256
# columns.  Over first sets of 32 to 1024 columns, rounds per LP fall as
# the set grows, and 256 or 512 keep pivots per LP near their least on
# 12 x 10^4 spiky (R = 4) and 24 x 10^4 Gaussian draws; the time per LP
# from 64 columns up differed by less than the host's noise
# (BENCH_sifting.json).  Up to 256 columns the first round is the whole LP,
# so the 10x20 and 12x63 LPs of the benchmark keep their pivot paths.
SIFT_COLUMNS = 256

# Most size-3 supports l0_brute_force will enumerate.  One triple costs about
# 21 us (a 3x3 solve and a residual; Gaussian 4x60 and 5x40, one Xeon core),
# so 3e6 triples take about a minute; C(n, 3) passes it from n = 264 on.
L0_TRIPLE_BUDGET = 3_000_000


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
    """(Gamma's entries, y as a float vector), checking y's length."""
    g = _entries(gamma)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (g.shape[0],):
        raise ValueError("y length must match the number of matrix rows")
    return g, y


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
    first round is the whole LP and pricing finds nothing; otherwise as
    the SIFT_COLUMNS columns with the largest |a_j'y|.  W only grows.
    """
    g, y = _system(gamma, y)
    n_rows, n_cols = g.shape
    if n_cols <= SIFT_COLUMNS:
        work = np.arange(n_cols)
    else:
        work = np.sort(np.argpartition(-np.abs(g.T @ y), SIFT_COLUMNS)
                       [:SIFT_COLUMNS])
    while True:
        g_w = g[:, work]
        sol = simplex.solve(simplex.LinearProgram(
            np.ones(2 * work.size), np.hstack([g_w, -g_w]), y))
        if sol.status == simplex.OPTIMAL:
            price = np.abs(g.T @ sol.dual) - 1.0
        elif sol.status == simplex.INFEASIBLE:
            price = np.abs(g.T @ sol.dual)
        else:
            raise RuntimeError(f"unexpected LP status {sol.status}")
        price[work] = 0.0  # the round's own test already passed these
        add = np.nonzero(price > simplex._DUAL_TOL)[0]
        if add.size == 0:
            break
        if add.size > 2 * n_rows:
            add = add[np.argpartition(-price[add], 2 * n_rows)[:2 * n_rows]]
        work = np.union1d(work, add)
    if sol.status == simplex.INFEASIBLE:
        raise NoSolutionError("y is not in the range of Gamma")
    t = np.zeros(n_cols)
    t[work] = sol.x[:work.size] - sol.x[work.size:]
    return RecoveryResult(t, sol.objective_value, UNKNOWN)


def _kernel_lp(g: np.ndarray, c: np.ndarray,
               free: np.ndarray) -> tuple[float, np.ndarray]:
    """(max c'z, z) over Gamma z = 0, ||z_C||_1 <= 1, with z_free free and C
    the other columns; the LP variables are (z_free, z_C+, z_C-, slack)."""
    n_rows, n_cols = g.shape
    comp = np.delete(np.arange(n_cols), free)
    k, m = free.size, comp.size
    a = np.zeros((n_rows + 1, k + 2 * m + 1))
    a[:n_rows, :k] = g[:, free]
    a[:n_rows, k:k + m] = g[:, comp]
    a[:n_rows, k + m:k + 2 * m] = -g[:, comp]
    a[n_rows, k:] = 1.0
    b = np.zeros(n_rows + 1)
    b[n_rows] = 1.0
    lower = np.zeros(k + 2 * m + 1)
    lower[:k] = -np.inf
    obj = np.concatenate([-c[free], -c[comp], c[comp], [0.0]])
    sol = simplex.solve(simplex.LinearProgram(obj, a, b, lower))
    if sol.status != simplex.OPTIMAL:
        raise RuntimeError(f"kernel LP returned {sol.status}")
    z = np.zeros(n_cols)
    z[free] = sol.x[:k]
    z[comp] = sol.x[k:k + m] - sol.x[k + m:k + 2 * m]
    return -sol.objective_value, z


def certify_uniqueness(gamma, y, result: RecoveryResult,
                       uniqueness_tol: float = UNIQUENESS_TOL) -> RecoveryResult:
    """Resolve the unique field of a basis-pursuit result by the strict-dual test.

    With S the support of x* = result.minimizer (entries above
    simplex.FEAS_TOL relative to its largest), C the rest and
    sigma = sign(x*_S), x* is the unique minimizer iff Gamma_S has full
    column rank and

        value = max { -sigma'z_S : Gamma z = 0, ||z_C||_1 <= 1 } < 1

    (Fuchs 2004; Zhang, Yin & Cheng 2015).  The verdict is UNIQUE iff the
    rank holds and value < 1 - uniqueness_tol, so uniqueness_tol is a margin
    on 1 - value.  One LP is solved, none when the rank fails.  A NOT_UNIQUE
    result carries witness_alt = x* + eps*z, with z the optimal kernel
    direction (or a null vector of Gamma_S) and eps <= 1 the largest step
    that flips no sign on S: Gamma w = y and ||w||_1 <= l1_value +
    eps*(1 - value).
    """
    if not 0.0 <= uniqueness_tol < 1.0:
        raise ValueError("uniqueness_tol must lie in [0, 1)")
    g, _ = _system(gamma, y)
    n_cols = g.shape[1]
    x = result.minimizer
    on_s = np.abs(x) > simplex.FEAS_TOL * float(np.abs(x).max(initial=0.0))
    s_idx = np.nonzero(on_s)[0]
    sigma = np.sign(x[s_idx])
    k = s_idx.size

    g_s = g[:, s_idx]
    if np.linalg.matrix_rank(g_s) < k:
        null = np.linalg.svd(g_s)[2][-1]
        z = np.zeros(n_cols)
        z[s_idx] = -null if sigma @ null > 0.0 else null
    else:
        c = np.zeros(n_cols)
        c[s_idx] = -sigma
        value, z = _kernel_lp(g, c, s_idx)
        if value < 1.0 - uniqueness_tol:
            return replace(result, unique=UNIQUE, witness_alt=None)
    shrink = s_idx[sigma * z[s_idx] < 0.0]
    eps = float(np.min(np.abs(x[shrink] / z[shrink]), initial=1.0))
    return replace(result, unique=NOT_UNIQUE, witness_alt=x + eps * z)


def _solution_list(n_cols: int, supports, values) -> list[SparseVector]:
    """SparseVectors from rows of plain ints and floats (.tolist() rows of
    hit indices and coefficients), without the constructor's checks:
    l0_brute_force makes every row sorted, distinct, in range, finite and
    nonzero (see there)."""
    found = []
    for supp, vals in zip(supports, values):
        v = object.__new__(SparseVector)
        object.__setattr__(v, "dim", n_cols)
        object.__setattr__(v, "support", tuple(supp))
        object.__setattr__(v, "values", tuple(vals))
        found.append(v)
    return found


def _pair_solutions(g, y, norms2, dots, thresh) -> list[SparseVector]:
    """Every pair (i, j), i < j, whose columns fit y within thresh, in
    itertools order; block i holds all j > i (see l0_brute_force)."""
    n_rows, n_cols = g.shape
    rcond2 = (np.finfo(np.float64).eps * max(n_rows, 2)) ** 2
    found: list[SparseVector] = []
    for i in range(n_cols - 1):
        a, d_i, g_i = norms2[i], dots[i], g[:, i]
        c, d_j, g_j = norms2[i + 1:], dots[i + 1:], g[:, i + 1:]
        b = g_i @ g_j
        det = a * c - b * b
        # the Gram's largest eigenvalue; sigma ratio^2 = lambda_min/lambda_max
        lam = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
        full = det > rcond2 * lam * lam
        safe = np.where(full, det, 1.0)
        t_i = (c * d_i - b * d_j) / safe
        t_j = (a * d_j - b * d_i) / safe
        res = np.linalg.norm(y[:, None] - g_i[:, None] * t_i - g_j * t_j, axis=0)
        hits = np.nonzero(full & (res <= thresh) & (t_i != 0.0) & (t_j != 0.0))[0]
        if hits.size:
            found += _solution_list(
                n_cols,
                np.column_stack([np.full(hits.size, i), i + 1 + hits]).tolist(),
                np.column_stack([t_i[hits], t_j[hits]]).tolist())
    return found


def l0_brute_force(gamma, y, d_max: int, res_tol: float = 1e-8) -> list[SparseVector]:
    """All minimal-size supports solving Gamma t = y, by enumeration.

    Stops at the first size s with a least-squares residual below
    res_tol*(1 + ||y||_2) and returns every support of that size, in
    itertools.combinations order.  More than one returned support means l0
    recovery is not unique.

    Every residual is the explicit norm ||y - Gamma_S t||, never
    ||y||^2 - t.(Gamma_S'y), which loses half the digits.  Size 1 uses the
    closed-form coefficient of each column.  Size 2 solves the pairs
    (i, j > i) of one column i at once, each 2x2 Gram system by Cramer's
    rule; memory is O(N n).  Rank-deficient pairs (sigma_min/sigma_max <=
    eps*max(N, 2), lstsq's default rcond) are skipped: two parallel columns
    span at most the line of one of them, where size 1 has already looked,
    so such a pair is never a minimal solution.  Size 3 loops over triples
    with one dense solve each; it raises ValueError before the first triple
    when C(n, 3) exceeds L0_TRIPLE_BUDGET (about a minute of solves).
    Searches that stop at size 1 or 2 never reach that check.

    The solutions skip SparseVector's checks, which hold by construction:
    indices come from np.nonzero or itertools.combinations, so a support is
    sorted, distinct and in range; the hit masks keep only nonzero
    coefficients; and a NaN or infinite coefficient makes the residual NaN
    or infinite, which fails residual <= threshold.  The list equals, object
    by object and in order, what the checking constructor would build.
    """
    g, y = _system(gamma, y)
    n_rows, n_cols = g.shape
    if not 0 <= d_max <= 3:
        raise ValueError("d_max must lie in [0, 3]")
    if n_rows < d_max:
        raise ValueError("d_max cannot exceed the number of rows")
    norm_y = float(np.linalg.norm(y))
    thresh = res_tol * (1.0 + norm_y)
    if norm_y <= thresh:
        return [SparseVector(n_cols, (), ())]
    dots = g.T @ y
    norms2 = np.einsum("ij,ij->j", g, g)
    found: list[SparseVector] = []
    for s in range(1, d_max + 1):
        if s == 1:
            ok = norms2 > 0.0
            coef = np.zeros(n_cols)
            coef[ok] = dots[ok] / norms2[ok]
            res = np.linalg.norm(y[:, None] - g * coef, axis=0)
            hits = np.nonzero(ok & (res <= thresh) & (coef != 0.0))[0]
            found = _solution_list(n_cols, hits[:, None].tolist(),
                                   coef[hits, None].tolist())
        elif s == 2:
            found = _pair_solutions(g, y, norms2, dots, thresh)
        else:
            if math.comb(n_cols, 3) > L0_TRIPLE_BUDGET:
                raise ValueError(
                    f"l0 size 3 would enumerate C({n_cols},3) = "
                    f"{math.comb(n_cols, 3)} supports, more than the budget "
                    f"of {L0_TRIPLE_BUDGET}; use d_max <= 2 or fewer columns")
            supports, values = [], []
            for supp in itertools.combinations(range(n_cols), 3):
                sub = g[:, supp]
                gram = sub.T @ sub
                try:
                    t = np.linalg.solve(gram, sub.T @ y)
                except np.linalg.LinAlgError:
                    t, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if np.linalg.norm(y - sub @ t) <= thresh and np.all(t != 0.0):
                    supports.append(supp)
                    values.append(t.tolist())
            found = _solution_list(n_cols, supports, values)
        if found:
            return found
    return []


def write_vector_text(v, path) -> None:
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    with open(path, "w") as f:
        f.write(" ".join(f"{x:.17g}" for x in v) + "\n")


def read_vector_text(path) -> np.ndarray:
    with open(path) as f:
        return np.atleast_1d(np.loadtxt(f, dtype=np.float64))
