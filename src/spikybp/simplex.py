"""Dense two-phase simplex for linear programs in standard form.

    minimize c.x   subject to   A x = b,   x >= 0

Every LP the package solves is basis pursuit over the split t = t+ - t-,
which has this form, so it is the only form: an LP with bounds
l <= x <= h reaches it through x = l + u, u + s = h - l.  Aimed at
problems with few equality rows and possibly many columns.  Each pivot
factors the m x m basis afresh with one LAPACK LU (dgetrf) and reuses it
for the three solves the pivot needs: the basic values, the duals and the
entering column (dgetrs).  m stays tiny, so an O(m^3) factorization per
pivot is cheap, and there is no update drift to manage.  A singular basis
raises numpy.linalg.LinAlgError.  Apart from those and the pricing product
c - A'y, a pivot does little: the mask of columns that may enter is kept
from pivot to pivot in the priced cost instead of being rebuilt, and the
ratio test runs over the m rows on Python floats.  A pivot costs about
21 us on the 12 x 126 LP of a 12 x 64 ER(1) verdict and 41 us at 40 x 512
(BENCH_pivot.json).

The status is OPTIMAL or INFEASIBLE.  Every cost the package builds is
>= 0, so no LP is unbounded: an infinite step raises RuntimeError.

Row i has an artificial column sign(b_i) e_i.  Phase 1 starts from the
all-artificial basis, unless the caller passes a start basis: m column
indices whose basic solution is feasible.  Every nonbasic variable is 0.
An artificial is pinned at 0 once it leaves the basis, or if it is outside
the start basis, and in phase 2 every artificial is pinned: it never
enters, and while still basic (a rank-deficient A) it may not move off 0
either way.  So with no artificial basic there is nothing for phase 1 to
do and phase 2 starts at once.  The solution returns its final basis in
the same index space, so a caller can start a related LP from it.

Every column is priced on every pivot, so a pivot costs O(m k): about
185 us at 3 x 19998 against 25 us at 3 x 1024.  Basis pursuit over 10^4
columns therefore does not hand this solver the whole LP:
recovery.basis_pursuit sifts, solving on a working set of columns and
pricing the rest once per round with the duals returned here.  Those are
the phase-2 duals with OPTIMAL and the phase-1 duals with INFEASIBLE.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_DUAL_TOL = 1e-9      # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-10    # smallest usable ratio-test denominator
_DEGEN_TOL = 1e-12    # step below this counts as a degenerate pivot
FEAS_TOL = 1e-9       # phase-1 residual above this*(1 + max|b|): infeasible


def _flapack():
    """scipy's f2py LAPACK wrappers, the module that scipy.linalg.lapack
    re-exports: dgetrf and dgetrs here, dgeqp3 and dgesv for
    recovery.basis_pursuit's start basis.

    Loaded by itself: `import scipy.linalg` runs the package __init__, which
    costs about 6 MB of resident memory and 50 ms on every start for three
    functions; the wrapper module alone costs about 1 MB and 3 ms.
    """
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAPACK = _flapack()
_getrf, _getrs = _LAPACK.dgetrf, _LAPACK.dgetrs


class IterationLimitError(RuntimeError):
    """Pivot cap exceeded; the message names the cap."""


@dataclass
class LinearProgram:
    """min objective.x s.t. eq_matrix x = eq_rhs, x >= 0."""
    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=np.float64))
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=np.float64))
        m, k = self.eq_matrix.shape
        if self.objective.shape != (k,):
            raise ValueError("objective length must match eq_matrix columns")
        if self.eq_rhs.shape != (m,):
            raise ValueError("eq_rhs length must match eq_matrix rows")
        finite = (np.all(np.isfinite(self.objective))
                  and np.all(np.isfinite(self.eq_matrix))
                  and np.all(np.isfinite(self.eq_rhs)))
        if not finite:
            raise ValueError("objective, eq_matrix, eq_rhs must be finite")

    @property
    def n_rows(self) -> int:
        return self.eq_matrix.shape[0]

    @property
    def n_vars(self) -> int:
        return self.eq_matrix.shape[1]


@dataclass
class LpSolution:
    """status is OPTIMAL, or INFEASIBLE with x and objective_value None.
    iterations counts the pivots of both phases, and phase1_iterations
    those of phase 1.  degenerate counts the pivots whose step is no longer
    than _DEGEN_TOL; bland is True once enough of them switched pricing to
    Bland's rule.  max_violation is the larger of max|A x - b| and
    max(-x) at an OPTIMAL x.

    dual is the y of the final basis, with reduced costs c - A'y: the
    phase-2 duals with OPTIMAL, and with INFEASIBLE the phase-1 duals, for
    the cost that is 0 on every column.  Then a_j'y <= _DUAL_TOL for every
    column of the LP, and since every nonbasic variable is 0, y'b is the
    phase-1 residual, so y separates b from the cone of the columns
    (Farkas).

    basis holds the m indices of the final basis: j < n_vars is column j
    of the LP, n_vars + i the artificial of row i, so it may be passed back
    to solve as a start basis (phase 1 then resumes if an artificial is in
    it)."""
    status: str
    x: np.ndarray | None
    objective_value: float | None
    iterations: int
    dual: np.ndarray | None = None
    max_violation: float = 0.0
    phase1_iterations: int = 0
    degenerate: int = 0
    bland: bool = False
    basis: np.ndarray | None = None


class _Simplex:
    def __init__(self, lp: LinearProgram, basis=None):
        m, k = lp.eq_matrix.shape
        self.m, self.k = m, k
        total = k + m
        self.a = np.zeros((m, total))
        self.a[:, :k] = lp.eq_matrix
        self.b = lp.eq_rhs.copy()
        self.c_orig = lp.objective
        self.cap = 50 * (m + k) ** 2
        self.bland_after = min(3 * (m + k), 50 * m)
        self.iterations = 0
        self.phase1_iterations = 0
        self.degenerate = 0
        self.bland = False
        self.y = None  # duals of the basis last priced by _phase

        # artificial column i is sign(b_i)*e_i so its start value |b_i| >= 0
        sgn = np.where(self.b >= 0.0, 1.0, -1.0)
        self.a[np.arange(m), k + np.arange(m)] = sgn
        self.x = np.zeros(total)
        self.x[k:] = np.abs(self.b)
        self.pinned = np.zeros(total, dtype=bool)  # artificials held at 0
        self.basis = np.arange(k, total)
        if basis is not None:
            self._start_from(basis)

    def _start_from(self, basis) -> None:
        """Make the given m columns the basis; the other artificials leave
        at 0, as if phase 1 had pivoted them out.  A singular basis, or one
        with a basic value below -FEAS_TOL*(1 + max|b|), is a caller error:
        ValueError, before any pivot."""
        m, k = self.m, self.k
        basis = np.asarray(basis, dtype=np.intp)
        if basis.shape != (m,) or np.any((basis < 0) | (basis >= k + m)):
            raise ValueError(f"start basis must be {m} indices below {k + m}")
        lu, piv, info = _getrf(self.a[:, basis])
        if info > 0:
            raise ValueError("start basis is singular")
        xb = _getrs(lu, piv, self.b)[0]
        tol = FEAS_TOL * (1.0 + np.abs(self.b).max(initial=0.0))
        if np.any(xb < -tol):
            raise ValueError("start basis is not primal feasible")
        self.x[:] = 0.0
        self.x[basis] = xb
        self.pinned[k:] = True
        self.pinned[basis] = False
        self.basis = basis.copy()

    def _phase(self, c: np.ndarray) -> None:
        """Pivot to an optimal basis for cost c; an infinite step raises.

        A nonbasic, unpinned column may enter.  That mask is kept in the
        priced cost itself, pivot by pivot: such a column costs c_j, every
        other one +inf, so it is never a candidate.  Dantzig's column is
        then the first minimum of the reduced costs, Bland's the first
        below -_DUAL_TOL.  x is written when the phase ends."""
        a, b, basis, pinned = self.a, self.b, self.basis, self.pinned
        cost = np.where(pinned, np.inf, c)
        cost[basis] = np.inf
        order = basis.tolist()         # basis as Python ints, row by row
        held = pinned[basis].tolist()  # rows holding a pinned artificial
        while True:
            if self.iterations >= self.cap:
                raise IterationLimitError(
                    f"simplex iteration cap {self.cap} exceeded")
            lu, piv, info = _getrf(a[:, basis])
            if info > 0:  # dgetrs would divide by the zero pivot silently
                raise np.linalg.LinAlgError("singular basis matrix")
            xb = _getrs(lu, piv, b)[0]  # every nonbasic variable is 0
            self.y = _getrs(lu, piv, c[basis], trans=1)[0]
            d = cost - a.T @ self.y
            if self.bland:
                q = int((d < -_DUAL_TOL).argmax())
            else:
                q = int(d.argmin())
                if d[q] != d[q]:  # argmin stops at a NaN, never a candidate
                    d[np.isnan(d)] = np.inf
                    q = int(d.argmin())
            if not d[q] < -_DUAL_TOL:
                self.x[:] = 0.0
                self.x[basis] = xb
                return
            # basic values move by -delta * step
            delta = _getrs(lu, piv, a[:, q])[0].tolist()
            xs = xb.tolist()

            # row i blocks the step where delta_i > 0, and a pinned basic
            # artificial blocks it on either side; each ratio is clamped
            # at 0, which min and the tie band below commute with
            rows = [i for i, v in enumerate(delta)
                    if v > _PIVOT_TOL or (v < -_PIVOT_TOL and held[i])]
            ratio = [xs[i] / delta[i] for i in rows]
            step = max(min(ratio, default=math.inf), 0.0)
            if not step < math.inf or any(map(math.isnan, ratio)):
                raise RuntimeError("objective unbounded below; the package "
                                   "solves only LPs with a cost >= 0")

            self.iterations += 1
            if step <= _DEGEN_TOL:
                self.degenerate += 1
                if self.degenerate > self.bland_after:
                    self.bland = True

            # the lowest-index leaving variable among the tied rows
            band = step + 1e-12 * (1.0 + step)
            leave = min([order[i] for i, r in zip(rows, ratio) if r <= band])
            row = order.index(leave)
            if leave >= self.k:  # an artificial that left is never allowed back
                pinned[leave] = True
            else:
                cost[leave] = c[leave]
            cost[q] = np.inf
            order[row] = q
            held[row] = False
            basis[row] = q

    def _solution(self, status, x=None, objective_value=None,
                  **kw) -> LpSolution:
        return LpSolution(status, x, objective_value, self.iterations,
                          phase1_iterations=self.phase1_iterations,
                          degenerate=self.degenerate, bland=self.bland,
                          basis=self.basis.copy(), **kw)

    def run(self) -> LpSolution:
        m, k = self.m, self.k
        if np.any(self.basis >= k):  # phase 1 while an artificial is basic
            c1 = np.concatenate([np.zeros(k), np.ones(m)])
            self._phase(c1)
            self.phase1_iterations = self.iterations
            infeas = float(self.x[k:].sum())
            if infeas > FEAS_TOL * (1.0 + np.abs(self.b).max(initial=0.0)):
                return self._solution(INFEASIBLE, dual=self.y)

        self.pinned[k:] = True  # artificials pinned for phase 2
        c2 = np.concatenate([self.c_orig, np.zeros(m)])
        self._phase(c2)
        x = self.x[:k].copy()
        resid = float(np.abs(self.a[:, :k] @ x - self.b).max(initial=0.0))
        breach = float(-x.min(initial=0.0))
        return self._solution(OPTIMAL, x, float(self.c_orig @ x), dual=self.y,
                              max_violation=max(resid, breach))


def solve(lp: LinearProgram, basis=None) -> LpSolution:
    """Two-phase simplex; Dantzig pricing, Bland's rule after cycling stalls.

    basis, if given, is the start basis: m indices in LpSolution.basis's
    index space (j < n_vars a column of lp, n_vars + i the artificial of
    row i).  Every other variable starts at 0, and the artificials outside
    it start pinned.  Phase 1 then runs only if an artificial is basic.  A
    singular or infeasible start basis raises ValueError, an infinite step
    RuntimeError and the pivot cap IterationLimitError."""
    if lp.n_rows < 1:
        raise ValueError("need at least one equality row")
    return _Simplex(lp, basis).run()
