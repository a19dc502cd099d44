"""Paired benchmark runs of two checkouts, written into one BENCH_*.json.

    python3 tools/bench_pairs.py pairs --parent ../old --change . \
        --workload nsp_gaussian --seed 2026 --seconds 25 --pairs 10 \
        --out BENCH_pivot.json
    python3 tools/bench_pairs.py trace --parent ../old --change . \
        --workload uniqueness --seed 2026 --out BENCH_pivot.json
    python3 tools/bench_pairs.py pivots --parent ../old --change . \
        --pairs 5 --out BENCH_pivot.json
    python3 tools/bench_pairs.py clean --parent ../old --change . \
        --pairs 3 --out BENCH_pivot.json

A checkout is a directory holding src/spikybp and perfbench/.  Every run
is a fresh interpreter started in its checkout with that checkout's src on
PYTHONPATH, so both sides run the same commands on their own code.  Pair i
runs the parent first when i is even and the change first when i is odd.

- pairs: `perfbench/run.py --workload W --seed S --seconds T` (W may be
  all), reading the JSON on its last line.  Each metric gets both sides'
  runs, medians and quartiles, the pairs the change won, and a verdict
  (see verdict()).  The direction and bound of an end-to-end metric come
  from the change's BENCHMARK.json.
- trace: one `--trace 1` run per side; the unit-0 counts and per-layer
  metrics side by side.
- pivots: microseconds per simplex pivot on five basis-pursuit LP shapes,
  from the artificial basis and from basis pursuit's crash basis.  3 x
  9999 is as wide as a theorem-a certificate LP solved without sifting.
- clean: basis pursuit of the first 150 spike-free columns of a planned
  spiky 40 x 10^4 draw (mix_seed(7, 0)), by the other columns: time per
  LP, time inside simplex.solve, rounds and pivots.

Each mode merges its record into --out under a key naming the mode, the
workload and the seed, and leaves the other keys as they are.  The
script uses the standard library only; the probes of pivots and clean
import numpy inside the checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("theorem_a", "nsp_gaussian", "uniqueness", "l0_pairs")

PIVOT_PROBE = r"""
import json, statistics, time
import numpy as np
from spikybp import recovery, rng, simplex
from spikybp.ensemble import EnsembleSpec, ScalarLaw, sample_matrix
out = {}
for m, n in ((3, 512), (3, 9999), (12, 63), (24, 256), (40, 256)):
    # column 0 of a Gaussian m x (n + 1) draw, by the other n columns
    g = sample_matrix(EnsembleSpec(ScalarLaw.gaussian(), m, n + 1,
                                   rng.mix_seed(2026, 0))).entries
    a, y = g[:, 1:], g[:, 0]
    lp = simplex.LinearProgram(np.ones(2 * n), np.hstack([a, -a]), y)
    for start, basis in (("cold", None), ("crash", recovery._crash_basis(a, y))):
        times = []
        for _ in range(40):
            t = time.perf_counter()
            sol = simplex.solve(lp, basis)
            times.append(time.perf_counter() - t)
        out[f"{m}x{n} {start}"] = {
            "pivots": sol.iterations,
            "us_per_pivot": 1e6 * statistics.median(times) / sol.iterations}
print(json.dumps(out))
"""

CLEAN_PROBE = r"""
import json, statistics, time
import numpy as np
from spikybp import recovery, rng, simplex
from spikybp.ensemble import (EnsembleSpec, ScalarLaw, plan_parameters,
                              sample_matrix, sample_spike_mask)
plan = plan_parameters(40, 10_000)
spec = EnsembleSpec(ScalarLaw.spiky(plan.delta, plan.big_r), 40, 10_000,
                    rng.mix_seed(7, 0))
g = sample_matrix(spec).entries
clean = np.flatnonzero(~sample_spike_mask(spec).any(axis=0))[:150]
cols = np.arange(g.shape[1])
solve, calls = simplex.solve, []
def timed(*args, **kwargs):
    t = time.perf_counter()
    sol = solve(*args, **kwargs)
    calls.append((time.perf_counter() - t, sol.iterations))
    return sol
simplex.solve = timed
lps = []
for j in clean.tolist():
    del calls[:]
    t = time.perf_counter()
    r = recovery.basis_pursuit(g[:, np.delete(cols, j)], g[:, j]).l1_value
    lps.append((time.perf_counter() - t, sum(c[0] for c in calls),
                len(calls), sum(c[1] for c in calls), r))
simplex.solve = solve
total, in_solve, rounds, pivots, r = (list(v) for v in zip(*lps))
print(json.dumps({
    "lps": len(lps), "ms_per_lp": 1e3 * statistics.mean(total),
    "solve_ms_per_lp": 1e3 * statistics.mean(in_solve),
    "rounds_per_lp": statistics.mean(rounds),
    "pivots_per_lp": statistics.mean(pivots), "max_pivots": max(pivots),
    "us_per_pivot": 1e6 * sum(in_solve) / sum(pivots),
    "r_min": min(r), "r_median": statistics.median(r)}))
"""


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _last_json(checkout: Path, cmd: list, timeout: float) -> dict:
    proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bench(checkout: Path, workload: str, seed: int, seconds: float,
           trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return _last_json(checkout, cmd, timeout=3600)


def _probe(checkout: Path, code: str) -> dict:
    return _last_json(checkout, [sys.executable, "-c", code], timeout=1800)


def _alternate(n_pairs: int, run) -> list:
    """n_pairs (parent, change) results; the parent runs first in even
    pairs.  run(side) returns one side's result."""
    pairs = []
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run(side) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i + 1}/{n_pairs} done", file=sys.stderr)
    return pairs


def _quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _wins(parent: list, change: list, lower_is_better: bool) -> int:
    """Pairs where the change reads better; a tie counts for neither."""
    sign = 1.0 if lower_is_better else -1.0
    return sum(sign * (b - a) < 0 for a, b in zip(parent, change))


def verdict(parent: list, change: list, lower_is_better: bool,
            bound: float | None) -> str:
    """better: the change wins at least 9 of 10 pairs and its median beats
    the parent's by more than the parent's Q1-Q3 spread.  worse: its median
    is worse than the parent's by more than bound.  unresolved: either
    side's Q1-Q3 spread is wider than bound times the parent's median,
    unless every change run beats every parent run.  within: otherwise.
    Without a bound only better and not better are told apart."""
    sign = 1.0 if lower_is_better else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    wins = _wins(parent, change, lower_is_better)
    gap = sign * (p["median"] - c["median"])  # > 0: the change is better
    if wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"]:
        return "better"
    if bound is None:
        return "not better"
    scale = abs(p["median"])
    if -gap > bound * scale:
        return "worse"
    beats_all = (max(change) < min(parent) if lower_is_better
                 else min(change) > max(parent))
    spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
    if spread > bound * scale and not beats_all:
        return "unresolved"
    return "within"


def _directions(checkout: Path) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    rows = {m["name"]: (m["better"] == "lower", m.get("bound"))
            for m in spec["end_to_end"]}
    rows |= {m["name"]: (m["better"] == "lower", None)
             for m in spec["per_layer"]}
    return rows


def summarize(pairs: list, directions: dict) -> dict:
    """Per metric: both sides' runs and quartiles, wins and the verdict."""
    out = {}
    for name in sorted(pairs[0][0]["metrics"]):
        head, _, rest = name.partition(".")
        base = rest if head in WORKLOADS else name  # --workload all
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower, bound = directions.get(base, (True, None))
        p, c = _quartiles(parent), _quartiles(change)
        out[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": "lower" if lower else "higher", "bound": bound,
            "parent": {"runs": parent, **p}, "change": {"runs": change, **c},
            "change_wins": _wins(parent, change, lower),
            "median_change": (c["median"] / p["median"] - 1.0
                              if p["median"] else None),
            "pairs": len(pairs),
            "verdict": verdict(parent, change, lower, bound)}
    return out


def _record(args, key: str, record: dict) -> None:
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[key] = {"recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
                 "machine": {"cpus": os.cpu_count(),
                             "processor": platform.processor(),
                             "python": platform.python_version()},
                 **record}
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {key} to {path}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("pairs", "trace", "pivots", "clean"))
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    if args.mode == "pairs":
        pairs = _alternate(args.pairs, lambda side: _bench(
            sides[side], args.workload, args.seed, args.seconds, 0))
        record = {"command": f"perfbench/run.py --workload {args.workload} "
                             f"--seed {args.seed} --seconds {args.seconds}",
                  "correct": {"parent": [p["correct"] for p, _ in pairs],
                              "change": [c["correct"] for _, c in pairs]},
                  "metrics": summarize(pairs, _directions(sides["change"]))}
        key = f"pairs {args.workload} seed {args.seed}"
    elif args.mode == "trace":
        got = {side: _bench(path, args.workload, args.seed, args.seconds, 1)
               for side, path in sides.items()}
        record = {"command": f"perfbench/run.py --workload {args.workload} "
                             f"--seed {args.seed} --seconds {args.seconds} "
                             f"--trace 1",
                  "correct": {s: r["correct"] for s, r in got.items()},
                  "metrics": {name: {s: got[s]["metrics"][name]["value"]
                                     for s in sides}
                              for name in sorted(got["parent"]["metrics"])}}
        key = f"trace {args.workload} seed {args.seed}"
    else:
        code = PIVOT_PROBE if args.mode == "pivots" else CLEAN_PROBE
        pairs = _alternate(args.pairs, lambda side: _probe(sides[side], code))
        record = {"runs": {"parent": [p for p, _ in pairs],
                           "change": [c for _, c in pairs]}}
        fields = pairs[0][0]
        for side, at in (("parent", 0), ("change", 1)):
            runs = [pair[at] for pair in pairs]
            record[side] = (
                {row: {f: statistics.median(r[row][f] for r in runs)
                       for f in fields[row]} for row in fields}
                if args.mode == "pivots" else
                {f: statistics.median(r[f] for r in runs) for f in fields})
        key = args.mode
    _record(args, key, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
