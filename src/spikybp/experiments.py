"""Seeded Monte Carlo harness for the failure experiment and side checks.

Each trial samples a fresh matrix with seed mix_seed(base_seed, t), so a
trial's outcome depends only on (base_seed, t, cell parameters), regardless
of worker scheduling.  Sweeps write one CSV row per (cell, trial) plus an
aggregate row per cell with trial = -1.
"""

from __future__ import annotations

import csv
import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import certify, recovery, rng, simplex
from .ensemble import (EnsembleSpec, ParameterPlan, ScalarLaw, evaluate_plan,
                       plan_parameters, sample_matrix, sample_spike_mask)

CHECK_FAILURE = "failure_cert"
CHECK_CLEAN = "clean_col"
CHECK_SPIKE = "spike_event"
CHECK_L0 = "l0_unique"
CHECK_NSP = "nsp_gaussian_baseline"
CHECK_PHI2 = "phi2"
# the per-trial checks of a cell; CHECK_NSP belongs to run_gaussian_baseline
KNOWN_CHECKS = frozenset({CHECK_FAILURE, CHECK_CLEAN, CHECK_SPIKE,
                          CHECK_L0, CHECK_PHI2})
DEFAULT_CHECKS = frozenset({CHECK_FAILURE, CHECK_CLEAN, CHECK_SPIKE})

# phi2 at or below this counts as the "compatibility collapsed" event
PHI2_ZERO_TOL = 1e-6

CSV_HEADER = ("cell_id", "N", "n", "delta", "p", "R", "trial", "seed",
              "failure_found", "witness_j", "clean_col1",
              "spike_event_all_rows", "l0_unique", "phi2")


class PlanInfeasibleError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    n_rows: int
    n_cols: int
    trials: int
    base_seed: int
    checks: frozenset = DEFAULT_CHECKS
    planner_overrides: tuple[float, float, float] | None = None
    force: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "checks", frozenset(self.checks))
        unknown = self.checks - KNOWN_CHECKS
        if unknown:
            raise ValueError(
                f"unknown checks: {sorted(unknown)}; a cell runs "
                f"{sorted(KNOWN_CHECKS)}, and the Gaussian baseline "
                f"({CHECK_NSP}) runs through run_gaussian_baseline")
        if self.planner_overrides is not None:
            d, p, r = self.planner_overrides
            object.__setattr__(self, "planner_overrides",
                               (float(d), float(p), float(r)))


@dataclass
class TrialRecord:
    trial: int
    seed: int
    failure_found: bool | None = None
    witness_j: int | None = None
    certificate: certify.FailureCertificate | None = None
    clean_col1: bool | None = None
    spike_event_all_rows: bool | None = None
    l0_unique: bool | None = None
    phi2: float | None = None
    nsp_holds: bool | None = None


@dataclass
class CheckStats:
    successes: int
    trials: int
    frequency: float
    wilson_95_interval: tuple[float, float]


@dataclass
class TrialStats:
    per_check: dict[str, CheckStats]
    records: list[TrialRecord]
    plan: ParameterPlan | None = None


def wilson_95(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def resolve_plan(config: ExperimentConfig) -> ParameterPlan:
    if config.planner_overrides is not None:
        d, p, r = config.planner_overrides
        plan = evaluate_plan(config.n_rows, config.n_cols, d, p, r)
    else:
        plan = plan_parameters(config.n_rows, config.n_cols)
    return check_plan(plan, config.force)


def plan_violation(plan: ParameterPlan) -> str:
    """'plan infeasible, <C> violated, <detail>' for the first violated
    condition: the words of both the refusal and the forced warning."""
    bad = plan.first_violated
    return f"plan infeasible, {bad.name} violated, {bad.detail}"


def check_plan(plan: ParameterPlan, force: bool) -> ParameterPlan:
    """The plan, or PlanInfeasibleError if it is infeasible and not forced."""
    if not plan.feasible and not force:
        raise PlanInfeasibleError(
            f"{plan_violation(plan)} (--force runs it anyway)")
    return plan


def _spike_event_all_rows(mask: np.ndarray) -> bool:
    """Every row has a column j >= 2 spiky in that row and clean elsewhere."""
    rest = mask[:, 1:]
    single = rest.sum(axis=0) == 1
    return bool(np.all((rest & single[None, :]).any(axis=1)))


def _theorem_a_trial(plan: ParameterPlan, trial: int, seed: int,
                     checks: frozenset) -> TrialRecord:
    spec = EnsembleSpec(plan.law(), plan.n_rows, plan.n_cols, seed)
    mat = sample_matrix(spec)
    record = TrialRecord(trial, seed)
    if CHECK_CLEAN in checks or CHECK_SPIKE in checks:
        mask = sample_spike_mask(spec)
        if CHECK_CLEAN in checks:
            record.clean_col1 = not bool(mask[:, 0].any())
        if CHECK_SPIKE in checks:
            record.spike_event_all_rows = _spike_event_all_rows(mask)
    if CHECK_FAILURE in checks:
        j, _, result = certify.er1_search(mat, 1.0 + simplex.FEAS_TOL)
        record.failure_found = result is not None
        if result is not None:
            record.witness_j = j
            record.certificate = certify.certificate_from(
                mat.entries, recovery.SparseVector(plan.n_cols, (j,), (1.0,)),
                result)
    if CHECK_L0 in checks:
        y = mat.entries[:, 0].copy()
        # every column parallel to column 1 is a size-1 solution too; these
        # are the supports of l0_brute_force(mat, y, 1), without building
        # the thousands of SparseVectors it returns at N = 3
        hits, _ = recovery._size_one_hits(mat.entries, y)
        record.l0_unique = hits.tolist() == [0]
    if CHECK_PHI2 in checks:
        record.phi2 = certify.compatibility_constant(mat, (0,), 1.0).phi2
    return record


def _trial_worker(args) -> TrialRecord:
    return _theorem_a_trial(*args)


_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_",
                         "openblas_set_num_threads")


def _single_blas_thread() -> None:
    """Pool initializer: run this process's OpenBLAS on one thread.

    A worker's BLAS calls are small (3 x 10^4 matrix-vector products), so
    with OpenBLAS's default thread count every worker wakes a full set of
    BLAS threads and the pool oversubscribes the CPUs.  dlsym on numpy's
    linalg extension also searches the BLAS library it links against.
    Without OpenBLAS (MKL, Accelerate) this does nothing.
    """
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in _OPENBLAS_SET_THREADS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return


_INDICATORS = {
    CHECK_FAILURE: lambda r: r.failure_found,
    CHECK_CLEAN: lambda r: r.clean_col1,
    CHECK_SPIKE: lambda r: r.spike_event_all_rows,
    CHECK_L0: lambda r: r.l0_unique,
    CHECK_NSP: lambda r: r.nsp_holds,
    CHECK_PHI2: lambda r: None if r.phi2 is None else r.phi2 <= PHI2_ZERO_TOL,
}


def _aggregate(records: list[TrialRecord], checks) -> dict[str, CheckStats]:
    out = {}
    for name in sorted(checks):
        vals = [v for v in (_INDICATORS[name](r) for r in records)
                if v is not None]
        if not vals:
            continue
        s = sum(1 for v in vals if v)
        out[name] = CheckStats(s, len(vals), s / len(vals),
                               wilson_95(s, len(vals)))
    return out


# the live trial pool, under (factory, worker count); at most one entry
_POOLS: dict = {}


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The cached pool of `workers` trial workers, built on first use.

    A pool of another size is shut down first.  The factory is looked up
    when called, and is part of the key, so a pool made by a stand-in for
    ProcessPoolExecutor is never handed out after the stand-in is gone.
    concurrent.futures joins the workers at interpreter exit.
    """
    key = (ProcessPoolExecutor, workers)
    pool = _POOLS.get(key)
    if pool is None:
        for old in _POOLS.values():
            old.shutdown()
        _POOLS.clear()
        pool = _POOLS[key] = ProcessPoolExecutor(
            max_workers=workers, initializer=_single_blas_thread)
    return pool


def run_cell(config: ExperimentConfig, threads: int = 1) -> TrialStats:
    """One sweep cell: every requested per-trial check on seeded matrices.

    threads > 1 runs the trials on min(threads, trials) worker processes,
    each with single-threaded BLAS; the records do not depend on threads.
    The workers outlive the cell: the next cell with the same worker count
    reuses them, so a sweep forks once, not once per cell.  They run the
    package as it was when the pool was built.  A pool that breaks (a
    worker died) raises BrokenProcessPool and is replaced by the next cell.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    plan = resolve_plan(config)
    args = [(plan, t, rng.mix_seed(config.base_seed, t), config.checks)
            for t in range(config.trials)]
    workers = min(threads, config.trials)
    if workers > 1:
        chunk = max(1, config.trials // (4 * workers))
        pool = _worker_pool(workers)
        try:
            records = list(pool.map(_trial_worker, args, chunksize=chunk))
        except BrokenProcessPool:
            _POOLS.clear()
            pool.shutdown()
            raise
    else:
        records = [_trial_worker(a) for a in args]
    return TrialStats(_aggregate(records, config.checks), records, plan)


def run_gaussian_baseline(n_rows: int, n_cols: int, trials: int,
                          seed: int) -> TrialStats:
    """Frequency of the exact ER(1) verdict over seeded Gaussian matrices."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    records = []
    for t in range(trials):
        s = rng.mix_seed(seed, t)
        mat = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), n_rows,
                                         n_cols, s))
        verdict = certify.er_check_nsp(mat, 1)
        records.append(TrialRecord(t, s, nsp_holds=verdict.holds))
    return TrialStats(_aggregate(records, {CHECK_NSP}), records, None)


def _fmt_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _cell_rows(cell_id: int, config: ExperimentConfig,
               stats: TrialStats) -> list[list[str]]:
    plan = stats.plan
    prefix = [cell_id, config.n_rows, config.n_cols,
              plan.delta, plan.p, plan.big_r]
    rows = []
    for r in stats.records:
        rows.append([_fmt_field(v) for v in prefix + [
            r.trial, r.seed, r.failure_found, r.witness_j, r.clean_col1,
            r.spike_event_all_rows, r.l0_unique, r.phi2]])

    def freq(name):
        st = stats.per_check.get(name)
        return None if st is None else st.frequency

    phi_vals = [r.phi2 for r in stats.records if r.phi2 is not None]
    phi_mean = sum(phi_vals) / len(phi_vals) if phi_vals else None
    rows.append([_fmt_field(v) for v in prefix + [
        -1, None, freq(CHECK_FAILURE), None, freq(CHECK_CLEAN),
        freq(CHECK_SPIKE), freq(CHECK_L0), phi_mean]])
    return rows


def write_csv(out_path, cells) -> None:
    """cells: iterable of (config, stats) pairs, one CSV block per cell."""
    rows = [list(CSV_HEADER)]
    for cell_id, (config, stats) in enumerate(cells):
        rows.extend(_cell_rows(cell_id, config, stats))
    with open(out_path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
