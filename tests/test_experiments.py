import csv
import ctypes
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from spikybp import cli, rng
from spikybp import experiments as ex
from spikybp.experiments import (CSV_HEADER, DEFAULT_CHECKS,
                                 ExperimentConfig, PlanInfeasibleError,
                                 run_cell, run_gaussian_baseline, wilson_95)

import oracles

FEASIBLE = dict(n_rows=3, n_cols=5000)  # smallest planner-feasible desk cell


def small_config(trials=3, seed=11, checks=DEFAULT_CHECKS, **kw):
    args = dict(FEASIBLE)
    args.update(kw)
    return ExperimentConfig(args["n_rows"], args["n_cols"], trials, seed,
                            checks=checks)


# ----------------------------------------------------------------- config

def test_config_rejects_unknown_check():
    with pytest.raises(ValueError):
        small_config(checks={"failure_cert", "nope"})
    # the baseline has its own runner; a cell would leave its field blank
    with pytest.raises(ValueError, match="run_gaussian_baseline"):
        small_config(checks={"failure_cert", "nsp_gaussian_baseline"})


def test_config_rejects_bad_trials():
    with pytest.raises(ValueError):
        small_config(trials=0)


def test_config_coerces_overrides():
    cfg = ExperimentConfig(3, 5000, 1, 0, planner_overrides=("0.001", 8))
    assert cfg.planner_overrides == (0.001, 8.0)
    with pytest.raises(ValueError):  # (delta, R): p is the shape's
        ExperimentConfig(3, 5000, 1, 0, planner_overrides=(0.001, 5, 8))


# ------------------------------------------------------------------- plan

def test_resolve_plan_infeasible_raises():
    cfg = ExperimentConfig(3, 400, 1, 0)
    with pytest.raises(PlanInfeasibleError) as err:
        ex.resolve_plan(cfg)
    assert "C1" in str(err.value)


def test_resolve_plan_force_passes():
    cfg = ExperimentConfig(3, 400, 1, 0, force=True)
    plan = ex.resolve_plan(cfg)
    assert not plan.feasible


def test_resolve_plan_overrides():
    cfg = ExperimentConfig(3, 5000, 1, 0,
                           planner_overrides=(0.01, 8.0), force=True)
    plan = ex.resolve_plan(cfg)
    assert plan.delta == 0.01 and plan.big_r == 8.0
    assert plan.p == math.log(5000) / math.log(3)


# ----------------------------------------------------------------- wilson

def test_wilson_against_mpmath():
    for s, n in ((0, 4), (4, 4), (97, 200), (1, 1), (50, 100)):
        got = wilson_95(s, n)
        want = oracles.mp_wilson_95(s, n)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_wilson_guards():
    with pytest.raises(ValueError):
        wilson_95(5, 4)
    with pytest.raises(ValueError):
        wilson_95(0, 0)


# ------------------------------------------------------------ event logic

def test_spike_event_all_rows_cases():
    # a single-spike column is its row's witness; rows keep their order
    mask = np.array([[0, 0, 1, 0],
                     [0, 0, 0, 1],
                     [0, 1, 0, 0]], dtype=bool)
    assert ex._spike_event_all_rows(mask) == (2, 3, 1)
    # the first witness of a row wins; double-spike columns cover nobody
    mask = np.array([[0, 1, 0, 1, 1],
                     [0, 1, 1, 0, 0]], dtype=bool)
    assert ex._spike_event_all_rows(mask) == (3, 2)
    mask = np.array([[0, 1, 1],
                     [0, 1, 0]], dtype=bool)
    assert ex._spike_event_all_rows(mask) is None
    # a witness in column 0 does not count
    mask = np.array([[1, 0, 1],
                     [0, 0, 0]], dtype=bool)
    assert ex._spike_event_all_rows(mask) is None


def test_phi2_event_is_collapse_at_most_1e6():
    # the CSV carries only the phi2 mean; the event counts phi2 <= 1e-6
    records = [ex.TrialRecord(i, i, phi2=v)
               for i, v in enumerate((0.0, 1e-6, 2e-6, 1e-5))]
    stats = ex._aggregate(records, {"phi2"})["phi2"]
    assert (stats.successes, stats.trials) == (2, 4)
    assert stats.mean == (0.0 + 1e-6 + 2e-6 + 1e-5) / 4


# -------------------------------------------------------------- run_cell

def test_run_cell_records_and_seeds():
    cfg = small_config(trials=3, seed=11)
    stats = run_cell(cfg)
    assert len(stats.records) == 3
    for t, r in enumerate(stats.records):
        assert r.trial == t
        assert r.seed == rng.mix_seed(11, t)
        assert r.failure_found is not None
        assert r.clean_col1 is not None
        assert r.spike_event_all_rows is not None
        assert r.l0_unique is None  # not requested
        assert r.phi2 is None
    assert set(stats.per_check) == {"failure_cert", "clean_col",
                                    "spike_event"}
    for st in stats.per_check.values():
        assert st.trials == 3
        assert st.frequency == st.successes / 3
        lo, hi = st.wilson_95_interval
        assert 0.0 <= lo <= st.frequency <= hi <= 1.0


def test_run_cell_deterministic_and_parallel_equal(tmp_path):
    cfg = small_config(trials=4, seed=23, checks=ex.KNOWN_CHECKS)
    serial = run_cell(cfg, threads=1)
    again = run_cell(cfg, threads=1)
    parallel = run_cell(cfg, threads=2)
    csv_bytes = []
    for k, stats in enumerate((serial, again, parallel)):
        out = tmp_path / f"{k}.csv"
        ex.write_csv(out, [(cfg, stats)])
        csv_bytes.append(out.read_bytes())
    assert csv_bytes[0] == csv_bytes[1] == csv_bytes[2]
    assert all(r.l0_unique is not None and r.phi2 is not None
               for r in serial.records)
    assert any(r.certificate is not None for r in serial.records)
    for a, b in ((serial, again), (serial, parallel)):
        for ra, rb in zip(a.records, b.records):
            assert (ra.certificate is None) == (rb.certificate is None)
            if ra.certificate is not None:
                assert np.array_equal(ra.certificate.witness,
                                      rb.certificate.witness)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments and
    shutdowns and runs the map in this process, so no worker is started."""

    def __init__(self, calls, **kwargs):
        self.kwargs = kwargs
        self.shut = False
        calls.append(self)

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)

    def shutdown(self, wait=True):
        self.shut = True


def _record_pools(monkeypatch):
    calls = []
    monkeypatch.setattr(ex, "_POOLS", {})
    monkeypatch.setattr(ex, "ProcessPoolExecutor",
                        lambda **kw: _RecordingPool(calls, **kw))
    return calls


@pytest.fixture
def pools(monkeypatch):
    """A pool cache of the test's own; its pool is shut down at teardown."""
    cache = {}
    monkeypatch.setattr(ex, "_POOLS", cache)
    yield cache
    for pool in cache.values():
        pool.shutdown()


def test_run_cell_threads_bounds(monkeypatch):
    cfg = small_config(trials=3, seed=11, checks={"clean_col"})
    for bad in (0, -1):
        with pytest.raises(ValueError):
            run_cell(cfg, threads=bad)
    calls = _record_pools(monkeypatch)
    run_cell(cfg, threads=1)
    assert calls == []
    run_cell(cfg, threads=10**6)
    assert [c.kwargs["max_workers"] for c in calls] == [3]
    assert calls[0].kwargs["initializer"] is ex._single_blas_thread
    run_cell(replace(cfg, trials=1), threads=4)  # one trial: no pool
    run_cell(cfg, threads=3)  # the same worker count: the same pool
    assert len(calls) == 1 and not calls[0].shut
    run_cell(cfg, threads=2)  # another count replaces it
    assert [c.kwargs["max_workers"] for c in calls] == [3, 2]
    assert calls[0].shut and not calls[1].shut


def test_cells_reuse_warm_workers(pools):
    cfg = small_config(trials=3, seed=11, checks={"clean_col"})
    first = run_cell(cfg, threads=2)
    pool = pools[2]
    workers = list(pool._processes.values())
    assert len(workers) == 2
    second = run_cell(cfg, threads=2)
    assert pools == {2: pool}
    assert list(pool._processes.values()) == workers
    assert second.records == first.records
    run_cell(cfg, threads=3)
    assert list(pools) == [3]
    for proc in workers:  # shut down, joined and reaped
        assert proc.exitcode is not None


def test_broken_pool_is_replaced(pools):
    cfg = small_config(trials=2, seed=11, checks={"clean_col"})
    serial = run_cell(cfg, threads=1)
    run_cell(cfg, threads=2)
    pool = pools[2]
    for proc in pool._processes.values():
        proc.kill()
        proc.join(timeout=60)
    with pytest.raises(BrokenProcessPool):
        run_cell(cfg, threads=2)
    assert pools == {}
    assert run_cell(cfg, threads=2).records == serial.records
    assert pools[2] is not pool


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_pooled_cell_leaves_no_worker_behind():
    src = str(Path(ex.__file__).resolve().parents[1])
    code = ("from spikybp import experiments as ex\n"
            "cfg = ex.ExperimentConfig(3, 5000, 2, 11, checks={'clean_col'})\n"
            "ex.run_cell(cfg, threads=2)\n"
            "print(*ex._POOLS[2]._processes)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 2
    assert [p for p in pids if os.path.exists(f"/proc/{p}")] == []


_OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads")


def _blas_threads():
    """This process's OpenBLAS thread count, or None without OpenBLAS."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in _OPENBLAS_GET_THREADS:
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def test_pool_workers_run_one_blas_thread(pools):
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    cfg = small_config(trials=2, seed=11, checks={"clean_col"})
    run_cell(cfg, threads=2)
    pool = pools[2]
    assert pool.submit(_blas_threads).result(timeout=60) == 1
    assert _blas_threads() == before


def test_certificate_attached_on_failure():
    cfg = small_config(trials=2, seed=11)
    stats = run_cell(cfg)
    for r in stats.records:
        if r.failure_found:
            assert r.certificate is not None
            assert r.certificate.target.support == (r.witness_j,)


def test_run_cell_trimmed_checks():
    cfg = small_config(trials=2, seed=5,
                       checks={"failure_cert", "l0_unique", "phi2"})
    stats = run_cell(replace(cfg, checks=cfg.checks & DEFAULT_CHECKS))
    assert set(stats.per_check) == {"failure_cert"}


def test_l0_check_same_seeds():
    cfg = small_config(trials=2, seed=5)
    a = run_cell(cfg)
    b = run_cell(replace(cfg, checks=frozenset({"l0_unique"})))
    assert [r.seed for r in a.records] == [r.seed for r in b.records]
    assert all(r.l0_unique is not None for r in b.records)
    assert all(r.failure_found is None for r in b.records)


def test_gaussian_baseline_small_cases():
    # 8 gaussian rows always separate 8 columns; a single row never can
    assert run_gaussian_baseline(8, 8, 5, 3).per_check[
        "nsp_gaussian_baseline"].frequency == 1.0
    assert run_gaussian_baseline(1, 2, 20, 3).per_check[
        "nsp_gaussian_baseline"].frequency == 0.0
    with pytest.raises(ValueError):
        run_gaussian_baseline(4, 4, 0, 1)
    for seed in (-1, 1 << 64):  # refused, not masked to another seed
        with pytest.raises(ValueError,
                           match="seed must be a 64-bit unsigned integer"):
            run_gaussian_baseline(6, 12, 2, seed)


def test_rademacher_pairs_defeat_bp_at_three_rows():
    # delta = 0 makes the law Rademacher; +-1 columns collide long before
    # n = 5000, so a certificate exists in every trial
    cfg = ExperimentConfig(3, 5000, 3, 9,
                           checks={"failure_cert"},
                           planner_overrides=(0.0, 0.0), force=True)
    stats = run_cell(cfg)
    assert stats.per_check["failure_cert"].frequency == 1.0


# ------------------------------------------------------------------ sweep

def sweep(tmp_path, *args, n_rows="3", out="sweep.csv"):
    return cli.run(["sweep", "--N-list", n_rows, "--threads", "1",
                    "--out", str(tmp_path / out), *args])


def test_sweep_csv_schema_and_rows(tmp_path, capsys):
    assert sweep(tmp_path, "--n-list", "5000,6000", "--trials-list", "2",
                 "--seed", "11") == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_HEADER)
    assert len(rows) == 1 + 2 * 3  # two cells x (two trials + aggregate)
    for cell_id, n_cols in enumerate((5000, 6000)):
        block = rows[1 + 3 * cell_id: 1 + 3 * (cell_id + 1)]
        for row in block:
            assert row[0] == str(cell_id)
            assert row[1] == "3" and row[2] == str(n_cols)
        trials = [r[6] for r in block]
        assert trials == ["0", "1", "-1"]
        agg = block[-1]
        assert agg[7] == ""  # no seed on the aggregate row
        # float fields repr-roundtrip to the exact plan values
        plan = ex.resolve_plan(ExperimentConfig(3, n_cols, 2, 11))
        assert float(agg[3]) == plan.delta
        assert float(agg[4]) == plan.p
        assert float(agg[5]) == plan.big_r
        found = [int(r[8]) for r in block[:-1]]
        assert float(agg[8]) == sum(found) / len(found)


# the CSV of the 3 x 5000 cell at seed 7 with every check: pins the phi2
# and l0 bytes at a size tier-1 runs
ALL_CHECKS_SHA256 = \
    "f3ae51a43808e3ac48881b6bd53420375e5513fec16e27686dad1ce5881b6b4a"


def test_sweep_deterministic_bytes(tmp_path, capsys):
    all_checks = "failure_cert,clean_col,spike_event,l0_unique,phi2"
    for args, sha256 in ((["--trials-list", "2"], None),
                         (["--trials-list", "6", "--checks", all_checks],
                          ALL_CHECKS_SHA256)):
        for out in ("a.csv", "b.csv"):
            assert sweep(tmp_path, "--n-list", "5000", "--seed", "7", *args,
                         out=out) == 0
        capsys.readouterr()
        data = (tmp_path / "a.csv").read_bytes()
        assert data == (tmp_path / "b.csv").read_bytes()
        if sha256 is not None:
            assert hashlib.sha256(data).hexdigest() == sha256


def test_sweep_overrides_are_the_library_cell(tmp_path, capsys):
    # --delta --R --force give every cell the forced override config
    assert sweep(tmp_path, "--n-list", "2000", "--trials-list", "3",
                 "--seed", "7", "--delta", "0.002", "--R", "9",
                 "--force", "--checks", ",".join(ex.KNOWN_CHECKS),
                 n_rows="3,5") == 0
    assert capsys.readouterr().err == (
        "warning: plan infeasible, C3 violated, R^4*delta=13.122 <= c_4=2\n"
        "warning: plan infeasible, C1 violated, R=9 >= 2N=10\n")
    configs = [ExperimentConfig(n_rows, 2000, 3, 7, checks=ex.KNOWN_CHECKS,
                                planner_overrides=(0.002, 9), force=True)
               for n_rows in (3, 5)]
    ex.write_csv(tmp_path / "lib.csv", [(c, run_cell(c)) for c in configs])
    assert (tmp_path / "sweep.csv").read_bytes() == \
        (tmp_path / "lib.csv").read_bytes()


@pytest.fixture
def ran(monkeypatch):
    """Records the configs run_cell is called with, and runs none of them."""
    calls = []
    monkeypatch.setattr(ex, "run_cell",
                        lambda cfg, threads: calls.append(cfg))
    return calls


def test_sweep_builds_every_config_before_the_first_cell(tmp_path, capsys,
                                                         ran):
    for args in (["--trials-list", "2,0"],
                 ["--trials-list", "2", "--checks", "nsp_gaussian_baseline"]):
        assert sweep(tmp_path, "--n-list", "5000", "--seed", "1", *args) == 1
    capsys.readouterr()
    assert ran == []
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_checks_every_plan_before_the_first_cell(tmp_path, capsys, ran):
    # cell 0 (n = 30000) is feasible, cell 1 (n = 400) violates C1
    assert sweep(tmp_path, "--n-list", "30000,400", "--trials-list", "20",
                 "--seed", "7") == 1
    assert "C1" in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_force_warns_once_per_infeasible_cell(tmp_path, capsys):
    assert sweep(tmp_path, "--force", "--n-list", "10000", "--trials-list",
                 "1", "--seed", "7", "--checks", "clean_col",
                 n_rows="3,5") == 0
    err = capsys.readouterr().err
    # N = 3 is feasible; at N = 5 the planned R = 9.08 breaks R < 2N
    assert err == "warning: plan infeasible, C1 violated, R=9.08411 >= 2N=10\n"
    with open(tmp_path / "sweep.csv", newline="") as f:
        assert [r[1] for r in csv.reader(f)][1:] == ["3", "3", "5", "5"]


def test_sweep_empty_list_exits_1(tmp_path, capsys, ran):
    assert sweep(tmp_path, "--n-list", "", "--trials-list", "1",
                 "--seed", "0") == 1
    assert "nonempty" in capsys.readouterr().err
    assert ran == []


def test_sweep_empty_checks_exits_1(tmp_path, capsys, ran):
    # an empty --checks list is refused like an empty sweep list, not
    # read as a missing flag that runs the default checks
    assert sweep(tmp_path, "--n-list", "5000", "--trials-list", "1",
                 "--seed", "0", "--checks", ",") == 1
    assert capsys.readouterr().err == (
        "error: every sweep list, --checks too, must be nonempty\n")
    assert ran == []
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("name", sorted(ex.KNOWN_CHECKS))
def test_cell_rows_missing_checks_leave_fields_empty(tmp_path, name):
    own = {"failure_cert": ["failure_found", "witness_j"],
           "clean_col": ["clean_col1"],
           "spike_event": ["spike_event_all_rows"],
           "l0_unique": ["l0_unique"], "phi2": ["phi2"]}[name]
    # column 1 fails at 3 x 5000 and recovers on the forced 16 x 40 cell, so
    # witness_j is seen both filled and empty
    configs = [ExperimentConfig(*shape, 1, 2, checks={name}, force=True)
               for shape in ((3, 5000), (16, 40))]
    ex.write_csv(tmp_path / "one.csv", [(c, run_cell(c)) for c in configs])
    with open(tmp_path / "one.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    columns = CSV_HEADER[8:]
    failed = []
    for row in rows:
        filled = [c for c, v in zip(columns, row[8:]) if v != ""]
        if row[6] == "-1":  # the aggregate row: the first column only
            assert filled == own[:1]
        elif name == "failure_cert":
            failed.append(row[8])
            assert filled == (own if row[8] == "1" else own[:1])
        else:
            assert filled == own
    assert failed in ([], ["1", "0"])
