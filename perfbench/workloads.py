"""The four benchmark workloads: inputs from a seed, one timed unit, a gate.

A run measures a stream of units.  Unit k of a run with seed s builds its
inputs from `rng.mix_seed(s, k)`, so the same seed gives the same stream and
each unit is a fresh draw of the same size.  A unit calls the package only
through module attributes (`experiments.run_cell`, `recovery.basis_pursuit`,
...), so the tracer's wrappers see every call.

`check` re-verifies a unit's outputs from the inputs alone and returns a
digest; at DEFAULT_SEED, unit 0, full size the digest must equal PINS.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spikybp import certify, ensemble, experiments, recovery
from spikybp.ensemble import EnsembleSpec, ScalarLaw

DEFAULT_SEED = 2026
OUT_DIR = Path(__file__).resolve().parent / "out"

CELL_CHECKS = frozenset({"failure_cert", "clean_col", "spike_event",
                         "l0_unique", "phi2"})
RES_TOL = 1e-8        # recovery.l0_brute_force default res_tol
CERT_RES_TOL = 1e-8   # |Gamma w - Gamma v|_inf for a re-checked certificate
L1_SLACK = 1e-9       # ||w||_1 <= 1 + L1_SLACK


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict          # "full" / "tiny" -> size parameters
    build: Callable      # (seed, size, serial) -> inputs
    run: Callable        # inputs -> output
    check: Callable      # (inputs, output) -> (problems, digest)
    items: Callable      # inputs -> items the unit attempts


# --- theorem_a: the headline cell, every per-trial check -------------------

@dataclass(frozen=True)
class CellInputs:
    config: experiments.ExperimentConfig
    threads: int


def _build_cell(seed, size, serial):
    config = experiments.ExperimentConfig(3, 10**4, size["trials"], seed,
                                          checks=CELL_CHECKS)
    experiments.resolve_plan(config)  # a plan that cannot run is an input error
    return CellInputs(config, 1 if serial else (os.cpu_count() or 1))


def _run_cell(inp):
    return experiments.run_cell(inp.config, threads=inp.threads)


def _check_cell(inp, stats):
    problems = []
    config = inp.config
    if len(stats.records) != config.trials:
        problems.append(f"{len(stats.records)} records for {config.trials} trials")
    law = stats.plan.law()
    for r in stats.records:
        if bool(r.failure_found) != (r.certificate is not None):
            problems.append(f"trial {r.trial}: failure_found without certificate")
            continue
        if r.certificate is None:
            continue
        cert = r.certificate
        g = ensemble.sample_matrix(EnsembleSpec(law, config.n_rows,
                                                config.n_cols, r.seed)).entries
        support = list(cert.target.support)
        y = g[:, support] @ np.array(cert.target.values)
        residual = float(np.abs(g @ cert.witness - y).max())
        if residual > CERT_RES_TOL:
            problems.append(f"trial {r.trial}: certificate residual {residual:.3e}")
        if float(np.abs(cert.witness).sum()) > 1.0 + L1_SLACK:
            problems.append(f"trial {r.trial}: ||w||_1 above 1")
        if np.any(cert.witness[support] != 0.0):
            problems.append(f"trial {r.trial}: witness meets the target support")
        if support != [r.witness_j]:
            problems.append(f"trial {r.trial}: witness_j is not the target")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "theorem_a.csv"
    experiments.write_csv(path, [(config, stats)])
    return problems, hashlib.sha256(path.read_bytes()).hexdigest()


# --- nsp_gaussian: exact ER(1) verdicts, pure simplex ----------------------

def _build_nsp(seed, size, serial):
    return (size["n_rows"], size["n_cols"], size["draws"], seed)


def _run_nsp(inp):
    return experiments.run_gaussian_baseline(*inp)


def _check_nsp(inp, stats):
    holds = [r.nsp_holds for r in stats.records]
    problems = []
    if len(holds) != inp[2] or any(not isinstance(h, bool) for h in holds):
        problems.append(f"expected {inp[2]} boolean verdicts, got {holds}")
    st = stats.per_check["nsp_gaussian_baseline"]
    if st.successes != sum(holds):
        problems.append("aggregate count disagrees with the records")
    return problems, f"held {sum(holds)}/{len(holds)}"


# --- uniqueness: NSP verdict against per-target basis pursuit --------------

def _build_uniqueness(seed, size, serial):
    spec = EnsembleSpec(ScalarLaw.gaussian(), size["n_rows"], size["n_cols"],
                        seed)
    return ensemble.sample_matrix(spec).entries


def _run_uniqueness(g):
    verdict = certify.er_check_nsp(g, 1)
    unique = []
    for j in range(g.shape[1]):
        for s in (1.0, -1.0):
            y = s * g[:, j]
            res = recovery.certify_uniqueness(g, y, recovery.basis_pursuit(g, y))
            expect = np.zeros(g.shape[1])
            expect[j] = s
            unique.append(res.unique == recovery.UNIQUE
                          and np.allclose(res.minimizer, expect, atol=1e-7))
    return verdict.holds, unique


def _check_uniqueness(g, out):
    holds, unique = out
    problems = []
    if holds != all(unique):
        problems.append(f"NSP says holds={holds} but {sum(unique)}/"
                        f"{len(unique)} targets are uniquely recovered")
    return problems, f"holds={int(holds)} unique={sum(unique)}/{len(unique)}"


# --- l0_pairs: the d=2 pair loop on a theorem-a matrix prefix --------------

@dataclass(frozen=True)
class PairInputs:
    mat: ensemble.MeasurementMatrix
    pair: tuple[int, int]
    y: np.ndarray


def _one_sparse_fit(g, y):
    """The d=1 closed-form test of l0_brute_force: some column fits y."""
    dots = g.T @ y
    norms2 = np.einsum("ij,ij->j", g, g)
    res2 = np.maximum(y @ y - dots * dots / norms2, 0.0)
    return bool(np.any(np.sqrt(res2) <= RES_TOL * (1.0 + np.linalg.norm(y))))


def _build_pairs(seed, size, serial):
    # Entry (i, j) depends only on (seed, i, j), so this is exactly the first
    # n_prefix columns of the 3 x 10^4 theorem-a matrix with this seed.
    law = ensemble.plan_parameters(3, 10**4).law()
    mat = ensemble.sample_matrix(EnsembleSpec(law, 3, size["n_prefix"], seed))
    g = mat.entries
    gen = np.random.default_rng(seed)
    while True:  # a target with a 1-sparse fit never reaches the pair loop
        a, b = (int(i) for i in gen.choice(g.shape[1], 2, replace=False))
        y = g[:, a] + 0.5 * g[:, b]
        if not _one_sparse_fit(g, y):
            return PairInputs(mat, (min(a, b), max(a, b)), y)


def _run_pairs(inp):
    return recovery.l0_brute_force(inp.mat, inp.y, 2, res_tol=RES_TOL)


def _check_pairs(inp, sols):
    if any(len(s.support) != 2 for s in sols):
        return ["a solution is not 2-sparse"], ""
    problems = []
    supports = np.array([s.support for s in sols], dtype=np.int64).reshape(-1, 2)
    if inp.pair not in {tuple(s) for s in supports.tolist()}:
        problems.append(f"planted support {inp.pair} not among solutions")
    g, y = inp.mat.entries, inp.y
    values = np.array([s.values for s in sols]).reshape(-1, 2)
    fit = g[:, supports[:, 0]] * values[:, 0] + g[:, supports[:, 1]] * values[:, 1]
    worst = float(np.linalg.norm(fit - y[:, None], axis=0).max(initial=0.0))
    if worst > RES_TOL * (1.0 + np.linalg.norm(y)):
        problems.append(f"solution residual {worst:.3e} above res_tol")
    return problems, hashlib.sha256(supports.tobytes()).hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("theorem_a", {"full": {"trials": 40}, "tiny": {"trials": 2}},
             _build_cell, _run_cell, _check_cell,
             lambda inp: inp.config.trials),
    Workload("nsp_gaussian",
             {"full": {"n_rows": 12, "n_cols": 64, "draws": 2},
              "tiny": {"n_rows": 6, "n_cols": 16, "draws": 1}},
             _build_nsp, _run_nsp, _check_nsp, lambda inp: inp[2]),
    Workload("uniqueness",
             {"full": {"n_rows": 10, "n_cols": 20},
              "tiny": {"n_rows": 5, "n_cols": 8}},
             _build_uniqueness, _run_uniqueness, _check_uniqueness,
             lambda g: 2 * g.shape[1] + 1),
    Workload("l0_pairs", {"full": {"n_prefix": 400}, "tiny": {"n_prefix": 40}},
             _build_pairs, _run_pairs, _check_pairs, lambda inp: 1),
)}

# Digests of the first three units (every untraced run makes at least
# three) at DEFAULT_SEED and full size, as the package computed them when the
# benchmark was added.  A change must reproduce these bytes and verdicts.
PINS = {
    "theorem_a": [
        "aa53701fd981127efe212e595cc3fec30f5aa6d9d46c64cdc436975f219356f5",
        "434b7838448294b21c759b939a3221264be71ad023147e7ab9b0434df0b33aab",
        "c70116bece623ae20f307c30a9b211eca50e8d58a95dbfbe67e7432ea30ae6a1"],
    "nsp_gaussian": ["held 2/2", "held 1/2", "held 2/2"],
    "uniqueness": ["holds=1 unique=40/40"] * 3,
    "l0_pairs": [
        "a4f738e104ecea2421929fe791672aa1f305edb5f1e706b4f9e9ba112a6d73de",
        "fba73a051dd68a1a512c010cffb57c11709ea5ffa3d7e098694478b162747f93",
        "d9bec21b5610c04696b8af6830d8383ff99bb5be27e8cbc8ea68e8e0905ecca6"],
}
