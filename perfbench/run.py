"""spikybp benchmark: one workload per run, or all four with `--workload all`.

    python3 perfbench/run.py --workload theorem_a --seed 2026 --seconds 25 --trace 0

Run from the repository root.  With `--trace 0` a run measures the
end-to-end metrics: it times units of the workload (see workloads.py) until
`--seconds` have passed and reports medians.  With `--trace 1` it repeats
unit 0, alternately untraced and under the span tracer (spans.py), and
reports the per-layer metrics.  Either way every unit's
output passes the correctness gate before the run reports `correct`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat each metric by
name with its unit and give the machine facts.  The same object, the
machine facts and (traced) the spans are written under perfbench/out/.
The benchmark never sets BLAS thread variables; it records them as found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("theorem_a", "nsp_gaussian", "uniqueness", "l0_pairs")
MIN_UNITS = 3          # units per untraced run, even past --seconds
MIN_TRACED_UNITS = 2   # traced repeats, so counts can be compared
SETUP_REPEATS = {"full": 5, "tiny": 1}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spikybp.cli; "
                "print(time.perf_counter() - t)")


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children is the largest reaped child
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {k: info.get(k) for k in ("name", "version",
                                             "openblas configuration")}
        except Exception as exc:  # build info is descriptive only
            return {"error": repr(exc)}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": _git_sha(),
    }


def measure_setup(wl, seed: int, size: str) -> tuple[float, float]:
    """Median fresh-interpreter `import spikybp.cli` (wall seen from outside,
    and the import alone seen from inside) plus median unit-0 input build."""
    from spikybp.rng import mix_seed
    walls, imports, builds = [], [], []
    for _ in range(SETUP_REPEATS[size]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        imports.append(float(proc.stdout.strip()))
        t0 = time.perf_counter()
        wl.build(mix_seed(seed, 0), wl.sizes[size], False)
        builds.append(time.perf_counter() - t0)
    return (statistics.median(walls) + statistics.median(builds),
            statistics.median(imports))


class Gate:
    """Collects attempted/failed items and correctness problems of a run."""

    def __init__(self, wl, seed: int, size: str):
        import workloads
        self.wl = wl
        self.pins = (workloads.PINS[wl.name]
                     if seed == workloads.DEFAULT_SEED and size == "full"
                     else [])
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.ref_walls: list[float] = []
        self.ref_cpus: list[float] = []

    def run_unit(self, inputs, chunk: int, referenced: bool = False) -> None:
        """Run and time one unit on the inputs of stream position `chunk`,
        then gate its output.  `referenced` times the reference computation
        right before and right after the unit and keeps their mean."""
        unit = len(self.walls)
        items = self.wl.items(inputs)
        self.attempted += items
        if referenced:
            before = reference.measure()
        c0, t0 = _cpu_s(), time.perf_counter()
        raised = False
        try:
            out = self.wl.run(inputs)
        except Exception:
            traceback.print_exc()
            raised = True
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(_cpu_s() - c0)
        if referenced:
            after = reference.measure()
            self.ref_walls.append((before[0] + after[0]) / 2)
            self.ref_cpus.append((before[1] + after[1]) / 2)
        if raised:
            self.failed += items
            self.problems.append(f"unit {unit} raised")
            return
        problems, digest = self.wl.check(inputs, out)
        self.problems += [f"unit {unit}: {p}" for p in problems]
        self.digests.append(digest)
        if chunk < len(self.pins) and digest != self.pins[chunk]:
            self.problems.append(f"unit {unit}: digest {digest!r} != pinned "
                                 f"{self.pins[chunk]!r}")

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def run_untraced(wl, seed: int, seconds: float, size: str, gate: Gate) -> dict:
    from spikybp.rng import mix_seed
    reference.measure()  # warm-up
    start = time.perf_counter()
    unit = 0
    while unit < MIN_UNITS or time.perf_counter() - start < seconds:
        gate.run_unit(wl.build(mix_seed(seed, unit), wl.sizes[size], False),
                      unit, referenced=True)
        unit += 1
    wall_rel = [w / r for w, r in zip(gate.walls, gate.ref_walls)]
    cpu_rel = [c / r for c, r in zip(gate.cpus, gate.ref_cpus)]
    return {"wall_rel": (statistics.median(wall_rel), "ref"),
            "cpu_rel": (statistics.median(cpu_rel), "ref"),
            "peak_rss_mb": (_peak_rss_mb(), "MB")}


def run_traced(wl, seed: int, seconds: float, size: str, gate: Gate,
               spans_path: Path) -> dict:
    """Alternate untraced and traced repeats of unit 0, so both are warm and
    see the same machine state; their difference is the tracing overhead."""
    import spans
    from spikybp.rng import mix_seed
    inputs = wl.build(mix_seed(seed, 0), wl.sizes[size], True)
    tracer = spans.Tracer()
    plain, traced, units, recorded = [], [], [], []
    start = time.perf_counter()
    while (len(units) < MIN_TRACED_UNITS
           or time.perf_counter() - start < seconds):
        gate.run_unit(inputs, 0)
        plain.append(gate.walls[-1])
        with tracer.installed():
            gate.run_unit(inputs, 0)
        traced.append(gate.walls[-1])
        recorded.append(tracer.take())
        units.append(spans.unit_counts(recorded[-1]))
    if len(set(gate.digests)) > 1:
        gate.problems.append("traced repeats changed the output")
    if not spans.originals_installed():
        gate.problems.append("tracer left wrappers installed")
    first = spans.exact_counts(units[0])
    if any(spans.exact_counts(u) != first for u in units[1:]):
        gate.problems.append("traced counts differ between repeats of a unit")
    spans.write_spans(spans_path, recorded)
    metrics = spans.layer_metrics(units)
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    return metrics


def bench(name: str, seed: int, seconds: float, trace: bool,
          size: str = "full") -> tuple[dict, dict]:
    """One benchmark run in this process; returns (result, machine facts)."""
    import workloads
    wl = workloads.WORKLOADS[name]
    gate = Gate(wl, seed, size)
    out_dir = workloads.OUT_DIR
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(exist_ok=True)
    if trace:
        metrics = run_traced(wl, seed, seconds, size, gate,
                             out_dir / f"{stem}-spans.jsonl")
    else:
        metrics = run_untraced(wl, seed, seconds, size, gate)
    # after the units, so the import probes are not in the children's peak RSS
    setup_s, import_s = measure_setup(wl, seed, size)
    if trace:
        metrics["cli.import_s"] = (import_s, "s")
    else:
        metrics |= {"setup_s": (setup_s, "s"),
                    "ok_frac": (1.0 - gate.failed / gate.attempted, "fraction"),
                    "verdict_ok": (1.0 if gate.ok else 0.0, "bool")}
    result = {"correct": gate.ok, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    facts = machine_facts()
    for p in gate.problems:
        print(f"gate: {p}", file=sys.stderr)
    # the seconds behind wall_rel and cpu_rel, for reading; not compared
    raw = {"wall_s": gate.walls, "cpu_s": gate.cpus,
           "ref_wall_s": gate.ref_walls, "ref_cpu_s": gate.ref_cpus}
    for key, values in raw.items():
        if values:
            print(f"median unit {key} = {statistics.median(values)!r}")
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "size": size, "machine": facts, "digests": gate.digests,
         "problems": gate.problems, "units": raw, "result": result},
        indent=1))
    return result, facts


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table and one summary."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
            rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:13s} {metric:46s} {value:16.6g} {unit}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the pinned seed, 2026)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spikybp" / "__init__.py").is_file():
        print(f"error: no spikybp sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    result, facts = bench(args.workload, seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(facts))
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
