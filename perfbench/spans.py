"""Span tracing of spikybp from outside the package.

Each traced function is replaced, for the duration of a `Tracer.installed()`
block, at the module attribute its callers look up (for example
`spikybp.simplex.solve`, which `recovery` calls as `simplex.solve` and
`simplex.feasible_point` calls as a module global).  A wrapper records one
span (id, parent id, name, start, end, counters) per call into an in-memory
list; nothing is written until the caller asks for it.  The originals are
put back when the block exits, also on error.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from spikybp import simplex


def _solve_counters(args, kwargs, sol):
    return {"pivots": sol.iterations,
            "infeasible": int(sol.status == simplex.INFEASIBLE)}


def _certificate_counters(args, kwargs, cert):
    return {"found": int(cert is not None)}


def _compat_counters(args, kwargs, value):
    return {"fw_iterations": value.iterations}


def _l0_counters(args, kwargs, sols):
    # The pair loop runs, over all C(n, 2) supports, exactly when the search
    # reaches size 2: it found nothing at size 1 and d_max allows pairs.
    gamma = args[0] if args else kwargs["gamma"]
    d_max = args[2] if len(args) > 2 else kwargs["d_max"]
    n_cols = getattr(gamma, "entries", gamma).shape[1]
    size = len(sols[0].support) if sols else d_max
    return {"solutions": len(sols),
            "pairs_examined": math.comb(n_cols, 2) if size >= 2 else 0}


# (module, attribute, span name, counter function).  The span name is the
# layer where the function is defined; the module is where callers look it
# up, which for the samplers is `experiments` (it imports them by name).
TARGETS = (
    ("spikybp.rng", "entry_words", "rng.entry_words", None),
    ("spikybp.experiments", "sample_matrix", "ensemble.sample_matrix", None),
    ("spikybp.experiments", "sample_spike_mask",
     "ensemble.sample_spike_mask", None),
    ("spikybp.simplex", "solve", "simplex.solve", _solve_counters),
    ("spikybp.certify", "er_check_nsp", "certify.er_check_nsp", None),
    ("spikybp.certify", "er_failure_certificate",
     "certify.er_failure_certificate", _certificate_counters),
    ("spikybp.certify", "compatibility_constant",
     "certify.compatibility_constant", _compat_counters),
    ("spikybp.recovery", "basis_pursuit", "recovery.basis_pursuit", None),
    ("spikybp.recovery", "certify_uniqueness",
     "recovery.certify_uniqueness", None),
    ("spikybp.recovery", "l0_brute_force", "recovery.l0_brute_force",
     _l0_counters),
    ("spikybp.experiments", "run_cell", "experiments.run_cell", None),
    ("spikybp.experiments", "run_gaussian_baseline",
     "experiments.run_gaussian_baseline", None),
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    counters: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from the wrappers it installs; single-threaded use."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._record(sid, parent, name, start, {"errors": 1})
                raise
            end = time.perf_counter()
            info = counters(args, kwargs, result) if counters else {}
            self._record(sid, parent, name, start, info, end)
            return result
        return traced

    def _record(self, sid, parent, name, start, info, end=None):
        end = time.perf_counter() if end is None else end
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, start, end, info))

    @contextmanager
    def installed(self):
        """Swap every TARGETS attribute for its traced wrapper, then restore."""
        saved = []
        try:
            for modname, attr, name, counters in TARGETS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    raise RuntimeError(
                        f"trace target {modname}.{attr} no longer exists; "
                        f"update perfbench/spans.py TARGETS")
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, counters))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def originals_installed() -> bool:
    """True when no TARGETS attribute is a wrapper left behind by a Tracer."""
    for modname, attr, _, _ in TARGETS:
        fn = getattr(importlib.import_module(modname), attr, None)
        if hasattr(fn, "__wrapped__"):
            return False
    return True


def unit_counts(spans: list[Span]) -> dict:
    """Per-name totals for one traced unit: calls, busy and self seconds,
    counter sums, and the number of LPs each name solved directly."""
    child_time = defaultdict(float)
    names = {s.sid: s.name for s in spans}
    for s in spans:
        child_time[s.parent] += s.end - s.start
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time[s.sid]
        for key, val in s.counters.items():
            row[key] += val
        if s.name == "simplex.solve" and s.parent is not None:
            out[names[s.parent]]["lps"] += 1
    return out


def _get(unit, name, key):
    return unit.get(name, {}).get(key, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, value from one unit's counts).  Counts
# are exact and repeat from run to run; times are medians over traced units.
LAYER_COUNTS = {
    "simplex.solve.calls": ("count", lambda u: _get(u, "simplex.solve", "calls")),
    "simplex.solve.pivots": ("count", lambda u: _get(u, "simplex.solve", "pivots")),
    "simplex.solve.infeasible": (
        "count", lambda u: _get(u, "simplex.solve", "infeasible")),
    "simplex.solve.errors": ("count", lambda u: _get(u, "simplex.solve", "errors")),
    "simplex.pivots_per_solve": ("pivots/lp", lambda u: _ratio(
        _get(u, "simplex.solve", "pivots"), _get(u, "simplex.solve", "calls"))),
    "certify.er_check_nsp.calls": (
        "count", lambda u: _get(u, "certify.er_check_nsp", "calls")),
    "certify.er_check_nsp.lps_per_call": ("lp/call", lambda u: _ratio(
        _get(u, "certify.er_check_nsp", "lps"),
        _get(u, "certify.er_check_nsp", "calls"))),
    "certify.er_failure_certificate.calls": (
        "count", lambda u: _get(u, "certify.er_failure_certificate", "calls")),
    "certify.er_failure_certificate.found_ratio": ("fraction", lambda u: _ratio(
        _get(u, "certify.er_failure_certificate", "found"),
        _get(u, "certify.er_failure_certificate", "calls"))),
    "certify.compatibility_constant.fw_iterations": ("count", lambda u: _get(
        u, "certify.compatibility_constant", "fw_iterations")),
    "recovery.certify_uniqueness.calls": (
        "count", lambda u: _get(u, "recovery.certify_uniqueness", "calls")),
    "recovery.certify_uniqueness.lps_per_call": ("lp/call", lambda u: _ratio(
        _get(u, "recovery.certify_uniqueness", "lps"),
        _get(u, "recovery.certify_uniqueness", "calls"))),
    "recovery.l0_brute_force.calls": (
        "count", lambda u: _get(u, "recovery.l0_brute_force", "calls")),
    "recovery.l0_brute_force.solutions": (
        "count", lambda u: _get(u, "recovery.l0_brute_force", "solutions")),
    "recovery.l0_brute_force.pairs_examined": (
        "count", lambda u: _get(u, "recovery.l0_brute_force", "pairs_examined")),
}

LAYER_TIMES = {
    "rng.entry_words.busy_s": ("rng.entry_words", "busy_s"),
    "ensemble.sample_matrix.busy_s": ("ensemble.sample_matrix", "busy_s"),
    "ensemble.sample_spike_mask.busy_s": ("ensemble.sample_spike_mask", "busy_s"),
    "simplex.solve.busy_s": ("simplex.solve", "busy_s"),
    "certify.er_check_nsp.self_s": ("certify.er_check_nsp", "self_s"),
    "certify.er_failure_certificate.self_s": (
        "certify.er_failure_certificate", "self_s"),
    "certify.compatibility_constant.busy_s": (
        "certify.compatibility_constant", "busy_s"),
    "recovery.basis_pursuit.busy_s": ("recovery.basis_pursuit", "busy_s"),
    "recovery.certify_uniqueness.self_s": ("recovery.certify_uniqueness", "self_s"),
    "recovery.l0_brute_force.busy_s": ("recovery.l0_brute_force", "busy_s"),
    "experiments.run_cell.self_s": ("experiments.run_cell", "self_s"),
    "experiments.run_gaussian_baseline.self_s": (
        "experiments.run_gaussian_baseline", "self_s"),
}


def layer_metrics(units: list[dict]) -> dict:
    """Per-layer metrics over traced units of identical input.

    Counts come from the first unit (the caller checks every unit matches);
    seconds are medians over units; ms_per_pivot is the median of each
    unit's solve time over its pivots.
    """
    out = {name: (fn(units[0]), unit) for name, (unit, fn) in LAYER_COUNTS.items()}
    for metric, (name, key) in LAYER_TIMES.items():
        out[metric] = (statistics.median(_get(u, name, key) for u in units), "s")
    out["simplex.ms_per_pivot"] = (statistics.median(
        1e3 * _ratio(_get(u, "simplex.solve", "busy_s"),
                     _get(u, "simplex.solve", "pivots")) for u in units), "ms")
    return out


def exact_counts(unit: dict) -> dict:
    """Everything in a unit's counts except seconds: must repeat exactly."""
    return {name: {k: v for k, v in row.items() if not k.endswith("_s")}
            for name, row in unit.items()}


def write_spans(path, spans_by_unit: list[list[Span]]) -> None:
    with open(path, "w") as f:
        for unit, spans in enumerate(spans_by_unit):
            for s in spans:
                f.write(json.dumps({"unit": unit, "id": s.sid,
                                    "parent": s.parent, "name": s.name,
                                    "start": s.start, "end": s.end,
                                    **s.counters}) + "\n")
