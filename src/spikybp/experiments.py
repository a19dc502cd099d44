"""Seeded Monte Carlo harness for the failure experiment and side checks.

Each trial samples a fresh matrix with seed mix_seed(base_seed, t), so a
trial's outcome depends only on (base_seed, t, cell parameters), regardless
of worker scheduling.  Sweeps write one CSV row per (cell, trial) plus an
aggregate row per cell with trial = -1.  A new per-trial check is one row
of CHECKS plus its TrialRecord field(s).
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import certify, recovery, rng
from .ensemble import (EnsembleSpec, ParameterPlan, ScalarLaw, evaluate_plan,
                       plan_parameters, sample_matrix, sample_spike_mask)

DEFAULT_CHECKS = frozenset({"failure_cert", "clean_col", "spike_event"})


class PlanInfeasibleError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    n_rows: int
    n_cols: int
    trials: int
    base_seed: int
    checks: frozenset = DEFAULT_CHECKS
    planner_overrides: tuple[float, float] | None = None  # (delta, R)
    force: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.base_seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "checks", frozenset(self.checks))
        unknown = self.checks - KNOWN_CHECKS
        if unknown:
            raise ValueError(
                f"unknown checks: {sorted(unknown)}; a cell runs "
                f"{sorted(KNOWN_CHECKS)}, and the Gaussian baseline "
                f"({NSP_BASELINE.name}) runs through run_gaussian_baseline")
        if self.planner_overrides is not None:
            d, r = self.planner_overrides  # another length: ValueError
            object.__setattr__(self, "planner_overrides", (float(d), float(r)))


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


def plan_violation(plan: ParameterPlan) -> str:
    """'plan infeasible, <C> violated, <detail>' for the first violated
    condition: the words of both the refusal and the forced warning."""
    bad = plan.first_violated
    return f"plan infeasible, {bad.name} violated, {bad.detail}"


def resolve_plan(config: ExperimentConfig) -> ParameterPlan:
    """The cell's plan from its (delta, R) or the planner; PlanInfeasibleError
    if it is infeasible and not forced."""
    if config.planner_overrides is not None:
        plan = evaluate_plan(config.n_rows, config.n_cols,
                             *config.planner_overrides)
    else:
        plan = plan_parameters(config.n_rows, config.n_cols)
    if not plan.feasible and not config.force:
        raise PlanInfeasibleError(
            f"{plan_violation(plan)} (--force runs it anyway)")
    return plan


def _spike_event_all_rows(mask: np.ndarray) -> bool:
    """Every row has a column j >= 2 spiky in that row and clean elsewhere."""
    rest = mask[:, 1:]
    single = rest.sum(axis=0) == 1
    return bool(np.all((rest & single[None, :]).any(axis=1)))


def _failure_cert(mat, mask) -> dict:
    j, cert = certify.first_failure(mat)
    return dict(failure_found=cert is not None, witness_j=j, certificate=cert)


def _l0_unique(mat, mask) -> dict:
    # columns parallel to column 1 are size-1 solutions too: the supports of
    # l0_brute_force(mat, y, 1), without its thousands of SparseVectors
    hits = recovery._size_one_hits(mat.entries, mat.entries[:, 0].copy())[0]
    return dict(l0_unique=hits.tolist() == [0])


# A per-trial check: fill(mat, mask) returns TrialRecord field values, with
# mask() the trial's spike mask, sampled on first call; `fields` are the CSV
# columns it fills, in order, and its 0/1 event is event(fields[0]).  Rows
# look up module attributes when they run, where a tracer's wrappers sit.
Check = namedtuple("Check", "name fields fill event", defaults=(bool,))

CHECKS = (
    Check("failure_cert", ("failure_found", "witness_j"), _failure_cert),
    Check("clean_col", ("clean_col1",),
          lambda mat, mask: dict(clean_col1=not bool(mask()[:, 0].any()))),
    Check("spike_event", ("spike_event_all_rows",), lambda mat, mask: dict(
        spike_event_all_rows=_spike_event_all_rows(mask()))),
    Check("l0_unique", ("l0_unique",), _l0_unique),
    Check("phi2", ("phi2",),
          lambda mat, mask: dict(
              phi2=certify.compatibility_constant(mat, (0,), 1.0).phi2),
          event=lambda phi2: phi2 <= 1e-6),  # compatibility collapsed
)
# the exact ER(1) verdict, run by run_gaussian_baseline and not by a cell
NSP_BASELINE = Check(
    "nsp_gaussian_baseline", ("nsp_holds",),
    lambda mat, mask: dict(nsp_holds=certify.er_check_nsp(mat, 1).holds))
_ROWS = {c.name: c for c in (*CHECKS, NSP_BASELINE)}

KNOWN_CHECKS = frozenset(c.name for c in CHECKS)
_COLUMNS = tuple(f for c in CHECKS for f in c.fields)
CSV_HEADER = ("cell_id", "N", "n", "delta", "p", "R", "trial",
              "seed") + _COLUMNS


def _trial(spec: EnsembleSpec, trial: int, checks) -> TrialRecord:
    """The record of the named checks, run in table order on spec's matrix."""
    mat = sample_matrix(spec)
    mask = functools.cache(lambda: sample_spike_mask(spec))
    values = {}
    for row in _ROWS.values():
        if row.name in checks:
            values.update(row.fill(mat, mask))
    return TrialRecord(trial, spec.seed, **values)


_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_",
                         "openblas_set_num_threads")


def _single_blas_thread() -> None:
    """Pool initializer: run this process's OpenBLAS on one thread.

    With OpenBLAS's default thread count every worker can wake a full set
    of BLAS threads, and the pool then oversubscribes the CPUs.  A
    3 x 10^4 cell makes no BLAS call large enough to start a thread (320
    trials: one thread per unpinned worker), so theorem-a timings cannot
    show the pin's worth.  Taller cells can: on a forced 32 x 10^4 cell
    (48 trials, default checks, 2 workers on 2 vCPUs, OpenBLAS 0.3.31)
    the workers took 10-11 CPU s with the pin and 18-21 s without, and
    the cell 5.1-5.5 s of wall time against 9.1-10.7 s.  dlsym on numpy's
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


def _values(records: list[TrialRecord], field: str) -> list:
    return [v for v in (getattr(r, field) for r in records) if v is not None]


def field_mean(records: list[TrialRecord], field: str) -> float | None:
    """Mean of a field over the trials that set it, or None: a check's
    aggregate CSV column (for a 0/1 field, the frequency)."""
    vals = _values(records, field)
    return sum(vals) / len(vals) if vals else None


def _aggregate(records: list[TrialRecord], checks) -> dict[str, CheckStats]:
    out = {}
    for name in sorted(checks):
        row = _ROWS[name]
        vals = [row.event(v) for v in _values(records, row.fields[0])]
        if vals:
            s = sum(1 for v in vals if v)
            out[name] = CheckStats(s, len(vals), s / len(vals),
                                   wilson_95(s, len(vals)))
    return out


# the live trial pool, under its worker count; at most one entry
_POOLS: dict = {}


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The cached pool of `workers` trial workers, built on first use.

    A pool of another size is shut down first.  concurrent.futures joins
    the workers at interpreter exit.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        for old in _POOLS.values():
            old.shutdown()
        _POOLS.clear()
        pool = _POOLS[workers] = ProcessPoolExecutor(
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
    specs = [EnsembleSpec(plan.law(), plan.n_rows, plan.n_cols,
                          rng.mix_seed(config.base_seed, t))
             for t in range(config.trials)]
    args = (specs, range(config.trials), [config.checks] * config.trials)
    workers = min(threads, config.trials)
    if workers > 1:
        chunk = max(1, config.trials // (4 * workers))
        pool = _worker_pool(workers)
        try:
            records = list(pool.map(_trial, *args, chunksize=chunk))
        except BrokenProcessPool:
            _POOLS.clear()
            pool.shutdown()
            raise
    else:
        records = list(map(_trial, *args))
    return TrialStats(_aggregate(records, config.checks), records, plan)


def run_gaussian_baseline(n_rows: int, n_cols: int, trials: int,
                          seed: int) -> TrialStats:
    """Frequency of the exact ER(1) verdict over seeded Gaussian matrices."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    checks = {NSP_BASELINE.name}
    records = [_trial(EnsembleSpec(ScalarLaw.gaussian(), n_rows, n_cols,
                                   rng.mix_seed(seed, t)), t, checks)
               for t in range(trials)]
    return TrialStats(_aggregate(records, checks), records, None)


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
    rows = [prefix + [r.trial, r.seed] + [getattr(r, f) for f in _COLUMNS]
            for r in stats.records]
    # the aggregate row fills each check's first column only
    rows.append(prefix + [-1, None] + [
        field_mean(stats.records, f) if k == 0 else None
        for c in CHECKS for k, f in enumerate(c.fields)])
    return [[_fmt_field(v) for v in row] for row in rows]


def write_csv(out_path, cells) -> None:
    """cells: iterable of (config, stats) pairs, one CSV block per cell."""
    rows = [list(CSV_HEADER)]
    for cell_id, (config, stats) in enumerate(cells):
        rows.extend(_cell_rows(cell_id, config, stats))
    with open(out_path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
