"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT = ("simplex.solve.calls", "simplex.solve.pivots",
         "recovery.l0_brute_force.solutions")


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_workloads_match():
    import workloads
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_tiny(name):
    result, facts = run.bench(name, 5, 0.0, False, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert emitted(result) == declared("end_to_end")
    assert spans.originals_installed()
    assert facts["blas_env"].keys() == set(run.BLAS_ENV)

    first, _ = run.bench(name, 5, 0.0, True, size="tiny")
    second, _ = run.bench(name, 5, 0.0, True, size="tiny")
    assert first["correct"] and second["correct"]
    assert emitted(first) == declared("per_layer")
    for key in EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    assert spans.originals_installed()


def test_missing_trace_target_fails_loudly(monkeypatch):
    from spikybp import recovery
    monkeypatch.delattr(recovery, "certify_uniqueness")
    with pytest.raises(RuntimeError, match="certify_uniqueness"):
        with spans.Tracer().installed():
            pass
    assert spans.originals_installed()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem_a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
