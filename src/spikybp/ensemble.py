"""Scalar measurement laws, moment formulas, parameter planning, sampling.

The spiky law is z = eps*(1 + R*eta) with eps a Rademacher sign and eta a
Bernoulli(delta) indicator: values +-1 with probability (1-delta)/2 each and
+-(1+R) with probability delta/2 each.  Matrices draw entries iid from the
normalized law x = z/||z||_L2 and scale every row by 1/sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import rng

RADEMACHER = "rademacher"
GAUSSIAN = "gaussian"
SPIKY = "spiky"

_KINDS = (RADEMACHER, GAUSSIAN, SPIKY)
C2_LOWER = 3.0  # condition C2 of a plan: delta >= C2_LOWER * ln(N) / n
C3_BOUND = 2.0  # condition C3 of a plan: R^4 * delta <= C3_BOUND


@dataclass(frozen=True)
class ScalarLaw:
    """Distribution of one unnormalized entry z."""

    kind: str
    delta: float = 0.0
    big_r: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown law kind: {self.kind!r}")
        if self.kind == SPIKY:
            if not 0.0 <= self.delta <= 1.0:
                raise ValueError("delta must lie in [0, 1]")
            if not 0.0 <= self.big_r < math.inf:
                raise ValueError("big_r must be nonnegative and finite")

    @classmethod
    def rademacher(cls) -> "ScalarLaw":
        return cls(RADEMACHER)

    @classmethod
    def gaussian(cls) -> "ScalarLaw":
        return cls(GAUSSIAN)

    @classmethod
    def spiky(cls, delta: float, big_r: float) -> "ScalarLaw":
        return cls(SPIKY, float(delta), float(big_r))


def moment_lp_norm(law: ScalarLaw, p: float) -> float:
    """L_p norm of the raw entry z, evaluated analytically.

    spiky:      ((1-delta) + delta*(1+R)^p)^(1/p)
    gaussian:   (2^(p/2) * Gamma((p+1)/2) / sqrt(pi))^(1/p)
    rademacher: 1
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and at least 1")
    if law.kind == RADEMACHER:
        return 1.0
    if law.kind == GAUSSIAN:
        logm = (0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0))
                - 0.5 * math.log(math.pi))
        return math.exp(logm / p)
    # spiky, in log space so large (1+R)^p cannot overflow
    a = math.log1p(-law.delta) if law.delta < 1.0 else -math.inf
    b = (math.log(law.delta) + p * math.log1p(law.big_r)
         if law.delta > 0.0 else -math.inf)
    hi = max(a, b)
    logm = hi + math.log(math.exp(a - hi) + math.exp(b - hi))
    return math.exp(logm / p)


def moment_ratio(law: ScalarLaw, p: float) -> float:
    """||z||_Lp / ||z||_L2, which equals ||x||_Lp for the normalized law."""
    if p < 2.0:
        raise ValueError("p must be at least 2")
    return moment_lp_norm(law, p) / moment_lp_norm(law, 2.0)


def normalized_fourth_moment(law: ScalarLaw) -> float:
    """m4 = E x^4 of the normalized law."""
    return moment_ratio(law, 4.0) ** 4


@dataclass(frozen=True)
class PlanCondition:
    name: str
    detail: str
    satisfied: bool


@dataclass(frozen=True)
class ParameterPlan:
    """(delta, p, R) for a shape (N, n), p = ln(n)/ln(N), with conditions."""

    n_rows: int
    n_cols: int
    delta: float
    p: float
    big_r: float
    conditions: tuple[PlanCondition, ...]

    @property
    def feasible(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    @property
    def first_violated(self) -> PlanCondition | None:
        for c in self.conditions:
            if not c.satisfied:
                return c
        return None

    def law(self) -> ScalarLaw:
        return ScalarLaw.spiky(self.delta, self.big_r)


def _moment_order(n_rows: int, n_cols: int) -> float:
    """p = ln(n)/ln(N), the moment order of the shape (N, n)."""
    if n_rows < 2:
        raise ValueError("n_rows must be at least 2")
    if n_cols <= n_rows:
        raise ValueError("n_cols must exceed n_rows")
    return math.log(n_cols) / math.log(n_rows)


def evaluate_plan(n_rows: int, n_cols: int, delta: float,
                  big_r: float) -> ParameterPlan:
    """The four admissibility conditions for explicit (delta, R) at (N, n);
    p is ln(n)/ln(N), as in plan_parameters, and no condition reads it."""
    p = _moment_order(n_rows, n_cols)
    lo = C2_LOWER * math.log(n_rows) / n_cols
    hi = math.log(math.e * n_cols / n_rows) / n_rows
    quart = big_r ** 4 * delta
    conditions = (
        PlanCondition("C1", f"R={big_r:.6g} >= 2N={2 * n_rows}",
                      big_r >= 2.0 * n_rows),
        PlanCondition("C2", f"{lo:.6g} <= delta={delta:.6g} <= {hi:.6g}",
                      lo * (1.0 - 1e-12) <= delta <= hi),
        PlanCondition("C3", f"R^4*delta={quart:.6g} <= c_4={C3_BOUND:.6g}",
                      quart <= C3_BOUND),
        PlanCondition("C4", f"delta={delta:.6g} <= 1/N={1.0 / n_rows:.6g}",
                      delta <= 1.0 / n_rows),
    )
    return ParameterPlan(n_rows, n_cols, delta, p, big_r, conditions)


def plan_parameters(n_rows: int, n_cols: int) -> ParameterPlan:
    """delta = C2_LOWER*ln(N)/n, p = ln(n)/ln(N), R = sqrt(p)*(1/delta)^(1/p).

    An infeasible plan is returned with its condition flags, not raised.
    """
    p = _moment_order(n_rows, n_cols)
    delta = C2_LOWER * math.log(n_rows) / n_cols
    big_r = math.sqrt(p) * (1.0 / delta) ** (1.0 / p)
    return evaluate_plan(n_rows, n_cols, delta, big_r)


def max_rows_theorem_a_prime(n_cols: int, p: float) -> float:
    """Row-count ceiling sqrt(p) * n^(1/p) (guide value, constant 1)."""
    if n_cols < 2:
        raise ValueError("n_cols must be at least 2")
    if p <= 2.0:
        raise ValueError("p must exceed 2")
    return math.sqrt(p) * n_cols ** (1.0 / p)


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything that determines a sampled matrix, bit for bit."""

    law: ScalarLaw
    n_rows: int
    n_cols: int
    seed: int

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix shape must be positive")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")

    @property
    def row_scale(self) -> float:
        return 1.0 / math.sqrt(self.n_rows)


@dataclass
class MeasurementMatrix:
    n_rows: int
    n_cols: int
    entries: np.ndarray
    row_scale: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.shape != (self.n_rows, self.n_cols):
            raise ValueError("entries shape does not match (n_rows, n_cols)")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")
        if not 0.0 < self.row_scale < math.inf:
            raise ValueError("row_scale must be positive and finite")


def _raw_draws(law: ScalarLaw, words: np.ndarray) -> np.ndarray:
    """Unnormalized z draws from a uint64 word array."""
    if law.kind == GAUSSIAN:
        # inverse CDF keeps one word per entry, preserving index addressing
        return ndtri(rng.words_to_uniform(words))
    z = rng.words_to_sign(words)
    if law.kind == SPIKY and law.delta > 0.0:
        spikes = rng.words_to_uniform(words) < law.delta
        z = z * (1.0 + law.big_r * spikes)
    return z


def sample_matrix(spec: EnsembleSpec) -> MeasurementMatrix:
    """Entry (i, j) is a normalized draw depending only on (seed, i, j)."""
    words = rng.entry_words(spec.seed, spec.n_rows, spec.n_cols)
    x = _raw_draws(spec.law, words) / moment_lp_norm(spec.law, 2.0)
    return MeasurementMatrix(spec.n_rows, spec.n_cols, spec.row_scale * x,
                             spec.row_scale)


def sample_spike_mask(spec: EnsembleSpec) -> np.ndarray:
    """Boolean eta mask of the draw sample_matrix(spec) would produce."""
    if spec.law.kind != SPIKY or spec.law.delta == 0.0:
        return np.zeros((spec.n_rows, spec.n_cols), dtype=bool)
    words = rng.entry_words(spec.seed, spec.n_rows, spec.n_cols)
    return rng.words_to_uniform(words) < spec.law.delta


def fourth_moment_linear_form(law: ScalarLaw, t) -> float:
    """Exact E<X,t>^4 = 3*||t||_2^4 + (m4 - 3)*sum_j t_j^4.

    X has iid entries from the normalized law (symmetric, unit variance).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t must be a nonempty vector")
    m4 = normalized_fourth_moment(law)
    s2 = float(t @ t)
    return 3.0 * s2 * s2 + (m4 - 3.0) * float(np.sum(t ** 4))


def small_ball_paley_zygmund(law: ScalarLaw, t, theta: float) -> float:
    """Lower bound (1-theta^2)^2 (E Z^2)^2 / E Z^4 on P(|<X,t>| >= theta*||t||_2)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    t = np.asarray(t, dtype=np.float64)
    s2 = float(t @ t)
    if s2 == 0.0:
        raise ValueError("t must be nonzero")
    return (1.0 - theta * theta) ** 2 * s2 * s2 / fourth_moment_linear_form(law, t)


def empirical_moment(law: ScalarLaw, p: float, samples: int, seed: int) -> float:
    """Monte Carlo estimate of ||x||_Lp for the normalized law."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    if samples < 1:
        raise ValueError("samples must be positive")
    words = rng.entry_words(seed, 1, samples)[0]
    x = _raw_draws(law, words) / moment_lp_norm(law, 2.0)
    return float(np.mean(np.abs(x) ** p) ** (1.0 / p))


def write_matrix_text(mat: MeasurementMatrix, path) -> None:
    """Line 1: "N n row_scale"; then N space-separated rows at 17 sig digits."""
    with open(path, "w") as f:
        f.write(f"{mat.n_rows} {mat.n_cols} {mat.row_scale:.17g}\n")
        np.savetxt(f, mat.entries, fmt="%.17g")


def read_matrix_text(path) -> MeasurementMatrix:
    with open(path) as f:
        head = f.readline().split()
        if len(head) != 3:
            raise ValueError("matrix header must be: n_rows n_cols row_scale")
        n_rows, n_cols, row_scale = int(head[0]), int(head[1]), float(head[2])
        body = np.loadtxt(f, dtype=np.float64, ndmin=2)
    if body.shape != (n_rows, n_cols):
        raise ValueError(f"matrix body shape {body.shape} does not match "
                         f"header ({n_rows}, {n_cols})")
    return MeasurementMatrix(n_rows, n_cols, body, row_scale)
