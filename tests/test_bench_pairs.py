"""tools/bench_pairs.py's verdicts and summaries, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 0.99, 1.00, 1.02, 1.01]


def scaled(factor):
    return [factor * v for v in PARENT]


@pytest.mark.parametrize("change, bound, want", [
    (scaled(0.8), 0.25, "better"),
    (scaled(1.5), 0.25, "worse"),
    (scaled(1.05), 0.25, "within"),
    (scaled(1.05), None, "not better"),
    (scaled(0.8), None, "better"),
])
def test_verdict_lower_is_better(change, bound, want):
    assert bp.verdict(PARENT, change, True, bound) == want


@pytest.mark.parametrize("change, bound, want", [
    (scaled(1.2), 0.25, "better"),
    (scaled(0.5), 0.25, "worse"),
    (scaled(0.98), 0.25, "within"),
    (scaled(0.98), None, "not better"),
])
def test_verdict_higher_is_better(change, bound, want):
    assert bp.verdict(PARENT, change, False, bound) == want


def test_verdict_unresolved_unless_every_change_run_wins():
    # the parent's Q1-Q3 spread (1.0) is wider than 0.25 of its median
    parent = [1.0, 2.0] * 5
    assert bp.verdict(parent, parent[::-1], True, 0.25) == "unresolved"
    # every change run beats every parent run, but the median gap (0.6)
    # is inside the parent's spread: not better, and resolved
    assert bp.verdict(parent, [0.9] * 10, True, 0.25) == "within"


def test_ties_count_for_neither_side():
    runs = [1.0, 2.0, 3.0]
    assert bp._wins(runs, list(runs), True) == 0
    assert bp._wins(runs, list(runs), False) == 0
    assert bp._wins([1.0, 1.0], [0.5, 1.0], True) == 1
    assert bp._wins([1.0, 1.0], [0.5, 1.0], False) == 0


@pytest.mark.parametrize("wins, bound, want", [
    (9, None, "better"), (8, None, "not better"),
    (9, 0.25, "better"), (8, 0.25, "within")])
def test_nine_of_ten_wins(wins, bound, want):
    # the other pairs are ties, which count for neither side
    parent = [1.0] * 10
    change = [0.5] * wins + [1.0] * (10 - wins)
    assert bp._wins(parent, change, True) == wins
    assert bp.verdict(parent, change, True, bound) == want


def test_quartiles_of_one_run():
    assert bp._quartiles([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7}
    assert bp._quartiles([1.0, 2.0, 3.0]) == {"median": 2.0, "q1": 1.5,
                                              "q3": 2.5}


def run(values):
    return {"metrics": {name: {"value": v, "unit": "u"}
                        for name, v in values.items()}}


def test_summarize_strips_the_workload_of_workload_all():
    names = ("theorem_a.wall_rel", "nsp_gaussian.ok_frac",
             "uniqueness.simplex.solve.calls", "wall_rel", "other.wall_rel")
    pairs = [(run(dict.fromkeys(names, 1.0)), run(dict.fromkeys(names, 0.5)))
             for _ in range(10)]
    out = bp.summarize(pairs, bp._directions(ROOT))
    assert set(out) == set(names)
    assert out["theorem_a.wall_rel"]["bound"] == 0.25
    assert out["theorem_a.wall_rel"]["better"] == "lower"
    assert out["theorem_a.wall_rel"]["verdict"] == "better"
    assert out["theorem_a.wall_rel"]["change_wins"] == 10
    assert out["theorem_a.wall_rel"]["median_change"] == -0.5
    assert out["wall_rel"]["bound"] == 0.25  # a single-workload run
    assert out["nsp_gaussian.ok_frac"]["better"] == "higher"
    assert out["nsp_gaussian.ok_frac"]["bound"] == 0.01
    assert out["nsp_gaussian.ok_frac"]["verdict"] == "worse"
    assert out["uniqueness.simplex.solve.calls"]["bound"] is None
    assert out["uniqueness.simplex.solve.calls"]["verdict"] == "better"
    # not a workload: the name is looked up whole, and is unknown
    assert out["other.wall_rel"]["bound"] is None
    assert out["other.wall_rel"]["parent"]["runs"] == [1.0] * 10
