"""Basis pursuit, per-target uniqueness certification, l0 brute force.

Basis pursuit solves min ||t||_1 subject to Gamma t = y as an LP over the
split t = t+ - t-.  Uniqueness of its minimizer is decided exactly by one
strict-dual LP on the minimizer's support and signs; l0 recovery enumerates
supports of growing size, all columns at once for size 1, one numpy block
of closed-form 2x2 solves per column for size 2, and one solve per triple
for size 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .ensemble import MeasurementMatrix

UNIQUE = "unique"
NOT_UNIQUE = "not_unique"
UNKNOWN = "unknown"

UNIQUENESS_TOL = 1e-6


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


def basis_pursuit(gamma, y, feas_tol: float = 1e-9) -> RecoveryResult:
    """min sum(t+ + t-) s.t. Gamma (t+ - t-) = y, t+- >= 0; unique left Unknown."""
    g = _entries(gamma)
    n_rows, n_cols = g.shape
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (n_rows,):
        raise ValueError("y length must match the number of matrix rows")
    lp = simplex.LinearProgram(np.ones(2 * n_cols), np.hstack([g, -g]), y)
    sol = simplex.solve(lp, feas_tol)
    if sol.status == simplex.INFEASIBLE:
        raise NoSolutionError("y is not in the range of Gamma")
    if sol.status != simplex.OPTIMAL:
        raise RuntimeError(f"unexpected LP status {sol.status}")
    t = sol.x[:n_cols] - sol.x[n_cols:]
    return RecoveryResult(t, sol.objective_value, UNKNOWN)


def certify_uniqueness(gamma, y, result: RecoveryResult,
                       uniqueness_tol: float = UNIQUENESS_TOL,
                       feas_tol: float = 1e-9) -> RecoveryResult:
    """Resolve the unique field of a basis-pursuit result by the strict-dual test.

    With S the support of x* = result.minimizer (entries above feas_tol
    relative to its largest), C the rest and sigma = sign(x*_S), x* is the
    unique minimizer iff Gamma_S has full column rank and

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
    g = _entries(gamma)
    n_rows, n_cols = g.shape
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (n_rows,):
        raise ValueError("y length must match the number of matrix rows")
    x = result.minimizer
    on_s = np.abs(x) > feas_tol * float(np.abs(x).max(initial=0.0))
    s_idx, c_idx = np.nonzero(on_s)[0], np.nonzero(~on_s)[0]
    sigma = np.sign(x[s_idx])
    k, m = s_idx.size, c_idx.size

    z = np.zeros(n_cols)
    g_s = g[:, s_idx]
    if np.linalg.matrix_rank(g_s) < k:
        null = np.linalg.svd(g_s)[2][-1]
        z[s_idx] = -null if sigma @ null > 0.0 else null
    else:
        # variables (z_S free, z_C+ >= 0, z_C- >= 0, budget slack >= 0)
        a = np.zeros((n_rows + 1, k + 2 * m + 1))
        a[:n_rows, :k] = g_s
        a[:n_rows, k:k + m] = g[:, c_idx]
        a[:n_rows, k + m:k + 2 * m] = -g[:, c_idx]
        a[n_rows, k:] = 1.0
        b = np.zeros(n_rows + 1)
        b[n_rows] = 1.0
        lower = np.zeros(k + 2 * m + 1)
        lower[:k] = -np.inf
        c = np.zeros(k + 2 * m + 1)
        c[:k] = sigma
        sol = simplex.solve(simplex.LinearProgram(c, a, b, lower), feas_tol)
        if sol.status != simplex.OPTIMAL:
            raise RuntimeError(f"strict-dual LP returned {sol.status}")
        if -sol.objective_value < 1.0 - uniqueness_tol:
            return replace(result, unique=UNIQUE, witness_alt=None)
        z[s_idx] = sol.x[:k]
        z[c_idx] = sol.x[k:k + m] - sol.x[k + m:k + 2 * m]
    shrink = s_idx[sigma * z[s_idx] < 0.0]
    eps = float(np.min(np.abs(x[shrink] / z[shrink]), initial=1.0))
    return replace(result, unique=NOT_UNIQUE, witness_alt=x + eps * z)


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
        found.extend(SparseVector(n_cols, (i, i + 1 + int(k)),
                                  (float(t_i[k]), float(t_j[k])))
                     for k in hits)
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
    with one dense solve each.
    """
    g = _entries(gamma)
    n_rows, n_cols = g.shape
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (n_rows,):
        raise ValueError("y length must match the number of matrix rows")
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
            found = [SparseVector(n_cols, (int(j),), (float(coef[j]),))
                     for j in hits]
        elif s == 2:
            found = _pair_solutions(g, y, norms2, dots, thresh)
        else:
            for supp in itertools.combinations(range(n_cols), s):
                sub = g[:, supp]
                gram = sub.T @ sub
                try:
                    t = np.linalg.solve(gram, sub.T @ y)
                except np.linalg.LinAlgError:
                    t, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if np.linalg.norm(y - sub @ t) <= thresh and np.all(t != 0.0):
                    found.append(SparseVector(n_cols, supp, tuple(map(float, t))))
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
