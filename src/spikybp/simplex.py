"""Dense two-phase simplex for box-bounded linear programs.

    minimize c.x   subject to   A x = b,   l <= x <= u

with infinite bounds allowed.  Aimed at problems with few equality rows and
possibly many columns.  Each pivot factors the m x m basis afresh with one
LAPACK LU (dgetrf) and reuses it for the three solves the pivot needs: the
basic values, the duals and the entering column (dgetrs).  m stays tiny, so
an O(m^3) factorization per pivot is cheap, and there is no update drift to
manage.  A singular basis raises numpy.linalg.LinAlgError.

Every column is priced on every pivot, so a pivot costs O(m k).  Basis
pursuit over 10^4 columns therefore does not hand this solver the whole
LP: recovery.basis_pursuit sifts, solving on a working set of columns and
pricing the rest once per round with the duals returned here.  Those are
the phase-2 duals with OPTIMAL and the phase-1 duals with INFEASIBLE.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3
# status -> may the variable increase / decrease from where it is
_CAN_INC = np.array([True, False, False, True])
_CAN_DEC = np.array([False, True, False, True])

_DUAL_TOL = 1e-9      # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-10    # smallest usable ratio-test denominator
_DEGEN_TOL = 1e-12    # step below this counts as a degenerate pivot
FEAS_TOL = 1e-9       # phase-1 residual above this*(1 + max|b|): infeasible


def _lu_routines():
    """dgetrf and dgetrs from scipy's f2py LAPACK wrappers, the module that
    scipy.linalg.lapack re-exports.

    Loaded by itself: `import scipy.linalg` runs the package __init__, which
    costs about 6 MB of resident memory and 50 ms on every start for two
    functions; the wrapper module alone costs about 1 MB and 3 ms.
    """
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgetrf, module.dgetrs


_getrf, _getrs = _lu_routines()


class IterationLimitError(RuntimeError):
    """Pivot cap exceeded; carries the best point seen so far."""

    def __init__(self, message: str, x=None, objective_value=None):
        super().__init__(message)
        self.x = x
        self.objective_value = objective_value


@dataclass
class LinearProgram:
    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower_bounds: np.ndarray | None = None
    upper_bounds: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=np.float64))
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=np.float64))
        m, k = self.eq_matrix.shape
        if self.objective.shape != (k,):
            raise ValueError("objective length must match eq_matrix columns")
        if self.eq_rhs.shape != (m,):
            raise ValueError("eq_rhs length must match eq_matrix rows")
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(k)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(k, np.inf)
        self.lower_bounds = np.atleast_1d(np.asarray(self.lower_bounds, dtype=np.float64))
        self.upper_bounds = np.atleast_1d(np.asarray(self.upper_bounds, dtype=np.float64))
        if self.lower_bounds.shape != (k,) or self.upper_bounds.shape != (k,):
            raise ValueError("bounds length must match eq_matrix columns")
        finite = (np.all(np.isfinite(self.objective))
                  and np.all(np.isfinite(self.eq_matrix))
                  and np.all(np.isfinite(self.eq_rhs)))
        if not finite:
            raise ValueError("objective, eq_matrix, eq_rhs must be finite")
        if np.any(np.isnan(self.lower_bounds)) or np.any(np.isnan(self.upper_bounds)):
            raise ValueError("bounds must not contain NaN")
        if np.any(self.lower_bounds > self.upper_bounds):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_rows(self) -> int:
        return self.eq_matrix.shape[0]

    @property
    def n_vars(self) -> int:
        return self.eq_matrix.shape[1]


@dataclass
class LpSolution:
    """iterations counts the pivots and bound flips of both phases, and
    phase1_iterations those of phase 1.  degenerate counts the steps no
    longer than _DEGEN_TOL; bland is True once enough of them switched
    pricing to Bland's rule.

    dual is the y of the final basis, with reduced costs c - A'y: the
    phase-2 duals with OPTIMAL, and with INFEASIBLE the phase-1 duals, for
    the cost that is 0 on every column.  Then a_j'y <= _DUAL_TOL for every
    column that may still increase, and if every nonbasic column rests at
    0, y'b is the phase-1 residual, so y separates b from the cone of the
    columns (Farkas)."""
    status: str
    x: np.ndarray | None
    objective_value: float | None
    iterations: int
    dual: np.ndarray | None = None
    max_violation: float = 0.0
    phase1_iterations: int = 0
    degenerate: int = 0
    bland: bool = False


class _Simplex:
    def __init__(self, lp: LinearProgram):
        m, k = lp.eq_matrix.shape
        self.m, self.k = m, k
        total = k + m
        self.a = np.zeros((m, total))
        self.a[:, :k] = lp.eq_matrix
        self.b = lp.eq_rhs.copy()
        self.c_orig = lp.objective
        self.lower = np.concatenate([lp.lower_bounds, np.zeros(m)])
        self.upper = np.concatenate([lp.upper_bounds, np.full(m, np.inf)])
        self.cap = 50 * (m + k) ** 2
        self.bland_after = min(3 * (m + k), 50 * m)
        self.iterations = 0
        self.phase1_iterations = 0
        self.degenerate = 0
        self.bland = False
        self.y = None  # duals of the basis last priced by _phase

        # park every original variable on a finite bound (or 0 when free)
        x = np.zeros(total)
        # intp, so that _CAN_INC[st] indexes without a cast
        st = np.full(total, _FREE, dtype=np.intp)
        lo_fin = np.isfinite(self.lower[:k])
        up_fin = np.isfinite(self.upper[:k])
        x[:k] = np.where(lo_fin, self.lower[:k],
                         np.where(up_fin, self.upper[:k], 0.0))
        st[:k] = np.where(lo_fin, _AT_LOWER,
                          np.where(up_fin, _AT_UPPER, _FREE))
        # artificial column i is sign(r_i)*e_i so its start value |r_i| >= 0
        r = self.b - self.a[:, :k] @ x[:k]
        sgn = np.where(r >= 0.0, 1.0, -1.0)
        self.a[np.arange(m), k + np.arange(m)] = sgn
        x[k:] = np.abs(r)
        st[k:] = _BASIC
        self.x = x
        self.status = st
        self.basis = np.arange(k, total)

    def _phase(self, c: np.ndarray, phase1: bool) -> str:
        k = self.k
        movable = self.upper - self.lower > 0.0
        while True:
            if self.iterations >= self.cap:
                raise IterationLimitError(
                    f"simplex iteration cap {self.cap} exceeded",
                    x=self.x[:k].copy(),
                    objective_value=float(self.c_orig @ self.x[:k]))
            bi = self.basis
            lu, piv, info = _getrf(self.a[:, bi])
            if info > 0:  # dgetrs would divide by the zero pivot silently
                raise np.linalg.LinAlgError("singular basis matrix")
            xn = self.x.copy()
            xn[bi] = 0.0
            xb = _getrs(lu, piv, self.b - self.a @ xn)[0]
            self.x[bi] = xb
            self.y = _getrs(lu, piv, c[bi], trans=1)[0]
            d = c - self.a.T @ self.y
            st = self.status
            inc = movable & (d < -_DUAL_TOL) & _CAN_INC[st]
            dec = movable & (d > _DUAL_TOL) & _CAN_DEC[st]
            cand = inc | dec
            if not cand.any():
                return OPTIMAL
            if self.bland:
                q = int(np.nonzero(cand)[0][0])
            else:
                q = int(np.argmax(np.where(cand, np.abs(d), -1.0)))
            direction = 1.0 if inc[q] else -1.0
            # basic values move by -delta * step
            delta = direction * _getrs(lu, piv, self.a[:, q])[0]

            lb, ub = self.lower[bi], self.upper[bi]
            ratio = np.full(self.m, np.inf)
            pos = delta > _PIVOT_TOL
            neg = delta < -_PIVOT_TOL
            np.divide(xb - lb, delta, out=ratio, where=pos)
            np.divide(xb - ub, delta, out=ratio, where=neg)
            np.maximum(ratio, 0.0, out=ratio)
            span = self.upper[q] - self.lower[q]  # own-bound flip distance
            r_min = float(ratio.min())
            step = min(span, r_min)
            if not np.isfinite(step):
                if phase1:
                    raise RuntimeError("phase-1 objective unbounded; input is broken")
                return UNBOUNDED

            self.iterations += 1
            if step <= _DEGEN_TOL:
                self.degenerate += 1
                if self.degenerate > self.bland_after:
                    self.bland = True

            if span <= r_min:
                # entering variable flips to its opposite bound, basis unchanged
                if direction > 0:
                    self.x[q] = self.upper[q]
                    self.status[q] = _AT_UPPER
                else:
                    self.x[q] = self.lower[q]
                    self.status[q] = _AT_LOWER
                continue

            tie = (ratio <= r_min + 1e-12 * (1.0 + r_min)) & (pos | neg)
            rows = np.nonzero(tie)[0]
            row = int(rows[np.argmin(bi[rows])])  # lowest-index leaving variable
            leave = int(bi[row])
            if delta[row] > 0:
                self.x[leave] = self.lower[leave]
                self.status[leave] = _AT_LOWER
            else:
                self.x[leave] = self.upper[leave]
                self.status[leave] = _AT_UPPER
            if phase1 and leave >= k:
                # an artificial that left the basis is never allowed back
                self.upper[leave] = 0.0
                movable[leave] = False
            self.x[q] += direction * step
            self.status[q] = _BASIC
            self.basis[row] = q

    def _solution(self, status, x=None, objective_value=None,
                  **kw) -> LpSolution:
        return LpSolution(status, x, objective_value, self.iterations,
                          phase1_iterations=self.phase1_iterations,
                          degenerate=self.degenerate, bland=self.bland, **kw)

    def run(self) -> LpSolution:
        m, k = self.m, self.k
        c1 = np.concatenate([np.zeros(k), np.ones(m)])
        self._phase(c1, phase1=True)
        self.phase1_iterations = self.iterations
        infeas = float(self.x[k:].sum())
        if infeas > FEAS_TOL * (1.0 + np.abs(self.b).max(initial=0.0)):
            return self._solution(INFEASIBLE, dual=self.y)

        self.upper[k:] = 0.0  # artificials pinned for phase 2
        c2 = np.concatenate([self.c_orig, np.zeros(m)])
        status = self._phase(c2, phase1=False)
        if status == UNBOUNDED:
            return self._solution(UNBOUNDED)
        x = self.x[:k].copy()
        resid = float(np.abs(self.a[:, :k] @ x - self.b).max(initial=0.0))
        breach = max(float((self.lower[:k] - x).max(initial=0.0)),
                     float((x - self.upper[:k]).max(initial=0.0)), 0.0)
        return self._solution(OPTIMAL, x, float(self.c_orig @ x), dual=self.y,
                              max_violation=max(resid, breach))


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; Dantzig pricing, Bland's rule after cycling stalls."""
    if lp.n_rows < 1:
        raise ValueError("need at least one equality row")
    return _Simplex(lp).run()
