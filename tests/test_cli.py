import argparse
import csv
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spikybp import cli
from spikybp.ensemble import MeasurementMatrix, read_matrix_text, \
    write_matrix_text
from spikybp.experiments import CSV_HEADER
from spikybp.recovery import SparseVector, read_vector_text


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "id.txt"
    write_matrix_text(MeasurementMatrix(4, 4, np.eye(4), 1.0), path)
    return str(path)


@pytest.fixture
def dup_file(tmp_path):
    a = np.array([[1.0, 1.0, 0.3], [0.5, 0.5, -0.2]])
    path = tmp_path / "dup.txt"
    write_matrix_text(MeasurementMatrix(2, 3, a, 1.0), path)
    return str(path)


# ---------------------------------------------------------------- parsing

def test_parse_target_unit_and_literal():
    v = cli.parse_target("e3", 5)
    assert v == SparseVector(5, (2,), (1.0,))
    v = cli.parse_target("5; 0:0.25,4:-0.75", 5)
    assert v.support == (0, 4)
    with pytest.raises(ValueError):
        cli.parse_target("e9", 5)
    with pytest.raises(ValueError):
        cli.parse_target("e0", 5)
    with pytest.raises(ValueError):
        cli.parse_target("4; 0:1", 5)  # dim mismatch


def test_unknown_command_and_flags_exit_1(capsys):
    assert cli.run(["frobnicate"]) == 1
    # a cell runs through sweep; there is no theorem-a command
    assert cli.run(["theorem-a", "--N", "3", "--n", "5000", "--trials", "4",
                    "--seed", "7", "--out", "x.csv"]) == 1
    assert "invalid choice: 'theorem-a'" in capsys.readouterr().err
    assert cli.run(["plan", "--N", "3"]) == 1  # missing --n
    assert cli.run(["plan", "--N", "3", "--n", "100", "--bogus", "1"]) == 1
    capsys.readouterr()


def test_readme_commands_parse():
    # every `$ spikybp ...` example in README.md, continuations joined,
    # must parse, so the README cannot name a flag the parser lacks
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = re.findall(r"^\$ spikybp (.*)$", readme.replace("\\\n", " "),
                          flags=re.M)
    assert len(commands) >= 11
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command))


# every option string of every subcommand, -h aside: a change to the CLI
# surface is a deliberate edit here
OPTIONS = {
    "plan": ["--N", "--n"],
    "sample": ["--N", "--n", "--seed", "--out", "--law", "--delta", "--R",
               "--force"],
    "moments": ["--law", "--delta", "--R", "--p"],
    "certify": ["--matrix", "--target", "--out"],
    "nsp": ["--matrix", "--d"],
    "recover": ["--matrix", "--target", "--y", "--unique", "--out"],
    "l0": ["--matrix", "--target", "--y", "--d-max"],
    "compat": ["--matrix", "--s", "--L"],
    "sweep": ["--N-list", "--n-list", "--trials-list", "--seed", "--out",
              "--checks", "--delta", "--R", "--threads", "--force"],
}


def test_option_inventory():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: [opt for action in sp._actions
                    for opt in action.option_strings
                    if opt not in ("-h", "--help")]
             for name, sp in sub.choices.items()}
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 41


# MATRIX and OUT stand for a matrix file and an output path; C2's lower
# constant is ensemble.C2_LOWER, not a flag
@pytest.mark.parametrize("command, flag", [
    (["certify", "--target", "e1", "--matrix", "MATRIX"], "--feas-tol"),
    (["recover", "--target", "e1", "--matrix", "MATRIX"], "--feas-tol"),
    (["nsp", "--d", "1", "--matrix", "MATRIX"], "--margin-tol"),
    (["l0", "--target", "e1", "--d-max", "1", "--matrix", "MATRIX"],
     "--res-tol"),
    (["compat", "--s", "1", "--L", "1", "--matrix", "MATRIX"], "--gap-tol"),
    (["plan", "--N", "3", "--n", "10000"], "--c-lo"),
    (["sample", "--N", "3", "--n", "10000", "--seed", "1", "--out", "OUT"],
     "--c-lo"),
    (["sweep", "--N-list", "3", "--n-list", "5000", "--trials-list", "1",
      "--seed", "1", "--checks", "clean_col", "--threads", "1",
      "--out", "OUT"], "--c-lo-list"),
    # the row scale and the Monte Carlo moment are library parameters only,
    # and the uniqueness margin a library constant
    (["sample", "--N", "3", "--n", "10000", "--seed", "1", "--out", "OUT"],
     "--no-row-scale"),
    (["recover", "--target", "e1", "--unique", "--matrix", "MATRIX"],
     "--uniqueness-tol"),
    (["moments", "--law", "gaussian", "--p", "4"], "--samples"),
    (["moments", "--law", "gaussian", "--p", "4"], "--seed"),
    # p is ln(n)/ln(N) for every plan; --delta and --R replace a plan
    (["sweep", "--N-list", "3", "--n-list", "5000", "--trials-list", "1",
      "--seed", "1", "--checks", "clean_col", "--threads", "1",
      "--delta", "0.002", "--R", "9", "--force", "--out", "OUT"], "--p"),
])
def test_removed_tolerance_flags_exit_1(identity_file, tmp_path, capsys,
                                        command, flag):
    paths = {"MATRIX": identity_file, "OUT": str(tmp_path / "out")}
    argv = [paths.get(a, a) for a in command]
    assert cli.run(argv) in (0, 2)
    capsys.readouterr()
    assert cli.run(argv + [flag, "1e-9"]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


# --------------------------------------------------------------- commands

def test_plan_output(capsys):
    assert cli.run(["plan", "--N", "3", "--n", "10000"]) == 0
    out = capsys.readouterr().out
    assert "delta = 0.0003295836866004329" in out
    assert "p = 8.38361309715754" in out
    assert "R = 7.534488188803754" in out
    for name in ("C1", "C2", "C3", "C4"):
        assert name in out
    assert "feasible: yes" in out


def test_c4_is_not_an_option(capsys):
    # C3's bound is the constant ensemble.C3_BOUND, not a flag
    assert cli.run(["plan", "--N", "3", "--n", "10000"]) == 0
    assert "C3 ok: R^4*delta=1.06214 <= c_4=2\n" in capsys.readouterr().out
    assert cli.run(["plan", "--N", "3", "--n", "10000", "--c4", "3"]) == 1
    assert "--c4" in capsys.readouterr().err


def test_plan_infeasible_reports_condition(capsys):
    assert cli.run(["plan", "--N", "100", "--n", "200"]) == 0
    out = capsys.readouterr().out
    assert "feasible: no" in out and "C1" in out


def test_plan_domain_error(capsys):
    assert cli.run(["plan", "--N", "1", "--n", "100"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.run(["plan", "--N", "5", "--n", "5"]) == 1
    assert capsys.readouterr().err == "error: n_cols must exceed n_rows\n"


def test_sample_deterministic_and_loadable(tmp_path, capsys):
    out1 = tmp_path / "m1.txt"
    out2 = tmp_path / "m2.txt"
    for out in (out1, out2):
        code = cli.run(["sample", "--N", "3", "--n", "500", "--seed", "9",
                        "--law", "gaussian", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    mat = read_matrix_text(out1)
    assert mat.n_rows == 3 and mat.n_cols == 500
    capsys.readouterr()


def test_sample_infeasible_needs_force(tmp_path, capsys):
    args = ["sample", "--N", "3", "--n", "400", "--seed", "1",
            "--out", str(tmp_path / "m.txt")]
    assert cli.run(args) == 1
    err = capsys.readouterr().err
    assert "C1" in err
    assert cli.run(args + ["--force"]) == 0
    err = capsys.readouterr().err
    # violated condition still echoed, in the same words as sweep's
    assert err.startswith("warning: plan infeasible, C1 violated, ")


# 3 x 100 at delta = 0.01 violates C2 whatever R is
EXPLICIT_C2 = ["--delta", "0.01", "--R", "6"]


def test_sample_and_theorem_a_refuse_a_plan_alike(tmp_path, capsys):
    # a theorem-a cell runs through sweep; a planned law and an explicit
    # (delta, R) reach the same check
    out = str(tmp_path / "x.txt")
    for n_cols, law, bad in (("400", [], "C1"), ("100", EXPLICIT_C2, "C2")):
        common = ["--seed", "1", "--out", out] + law
        assert cli.run(["sample", "--N", "3", "--n", n_cols] + common) == 1
        sample_err = capsys.readouterr().err
        assert cli.run(["sweep", "--N-list", "3", "--n-list", n_cols,
                        "--trials-list", "1"] + common) == 1
        assert capsys.readouterr().err == sample_err
        assert sample_err.startswith(
            f"error: plan infeasible, {bad} violated, ")
        assert sample_err.count("\n") == 1
        assert not (tmp_path / "x.txt").exists()
    # forced, both warn in the same line and run
    assert cli.run(["sample", "--N", "3", "--n", "100", "--seed", "1",
                    "--out", str(tmp_path / "m.txt"), "--force"]
                   + EXPLICIT_C2) == 0
    sample_err = capsys.readouterr().err
    assert cli.run(["sweep", "--N-list", "3", "--n-list", "100",
                    "--trials-list", "1", "--seed", "1", "--threads", "1",
                    "--out", str(tmp_path / "s.csv"), "--force"]
                   + EXPLICIT_C2) == 0
    assert capsys.readouterr().err == sample_err == (
        "warning: plan infeasible, C2 violated, "
        "0.0329584 <= delta=0.01 <= 1.50219\n")


BAD_R = "big_r must be nonnegative and finite"
BAD_DELTA = "delta must lie in [0, 1]"


@pytest.mark.parametrize("law, message", [
    (["--delta", "0.001", "--R", "-1"], BAD_R),
    (["--delta", "1.5", "--R", "9"], BAD_DELTA),
    (["--delta", "nan", "--R", "9"], BAD_DELTA),
    (["--delta", "0.001", "--R", "nan"], BAD_R),
])
def test_a_forced_no_law_is_one_error_line(law, message, tmp_path, capsys):
    # (delta, R) is checked as a law before any plan condition, so --force
    # prints no plan warning ahead of the error, in sample and sweep alike
    out = tmp_path / "out"
    for argv in (["sample", "--N", "3", "--n", "10000", "--seed", "1"],
                 ["sweep", "--N-list", "3,4", "--n-list", "10000",
                  "--trials-list", "1", "--seed", "1", "--threads", "1"]):
        assert cli.run(argv + ["--out", str(out), "--force"] + law) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_sample_rademacher_entries_are_half(tmp_path, capsys):
    # the control law: +-1 entries times the row scale 1/sqrt(N)
    out = tmp_path / "r.txt"
    assert cli.run(["sample", "--law", "rademacher", "--N", "4", "--n", "30",
                    "--seed", "5", "--out", str(out)]) == 0
    assert "law=rademacher" in capsys.readouterr().out
    mat = read_matrix_text(out)
    assert mat.entries.shape == (4, 30)
    assert np.all(np.abs(mat.entries) == 0.5)


def test_sample_explicit_law_needs_both_params(tmp_path, capsys):
    args = ["sample", "--N", "3", "--n", "100", "--seed", "1",
            "--delta", "0.01", "--out", str(tmp_path / "m.txt")]
    assert cli.run(args) == 1
    assert "given together" in capsys.readouterr().err
    # an explicit (delta, R) is checked like a planned one
    assert cli.run(args + ["--R", "6"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: plan infeasible, C2 violated")
    assert not (tmp_path / "m.txt").exists()
    assert cli.run(args + ["--R", "6", "--force"]) == 0
    assert capsys.readouterr().err.startswith(
        "warning: plan infeasible, C2 violated")


def test_control_laws_take_no_spike_params(tmp_path, capsys):
    out = tmp_path / "m.txt"
    for argv in (["sample", "--law", "gaussian", "--N", "3", "--n", "100",
                  "--seed", "1", "--out", str(out), "--delta", "0.5"],
                 ["sample", "--law", "rademacher", "--N", "3", "--n", "100",
                  "--seed", "1", "--out", str(out), "--R", "6"],
                 ["moments", "--law", "gaussian", "--delta", "0.3",
                  "--p", "4"]):
        assert cli.run(argv) == 1
        assert capsys.readouterr().err.startswith("error: --law ")
    assert not out.exists()


def test_moments_output(capsys):
    assert cli.run(["moments", "--law", "spiky", "--delta", "0.25",
                    "--R", "3", "--p", "4"]) == 0
    out = capsys.readouterr().out
    assert "lp_norm(p=4.0) = 2.83667736440285" in out
    assert "normalized_fourth_moment" in out
    assert cli.run(["moments", "--law", "spiky", "--p", "4"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--law", "spiky", "--delta", "0.1", "--R", "inf", "--p", "4"],
    ["--law", "spiky", "--delta", "0.1", "--R", "nan", "--p", "4"],
    ["--law", "gaussian", "--p", "inf"],
    ["--law", "rademacher", "--p", "nan"]])
def test_moments_nonfinite_r_or_p_exits_1(capsys, argv):
    # each printed a moment (nan, or 1.0 for Rademacher) and exited 0; an
    # error prints no partial result
    assert cli.run(["moments"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_certify_exit_codes(identity_file, dup_file, tmp_path, capsys):
    assert cli.run(["certify", "--matrix", identity_file,
                    "--target", "e1"]) == 0
    assert "no certificate" in capsys.readouterr().out
    cert_path = tmp_path / "cert.txt"
    code = cli.run(["certify", "--matrix", dup_file, "--target", "e1",
                    "--out", str(cert_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "failure certificate found" in out
    text = cert_path.read_text()
    assert text.startswith("target:")
    assert "witness:" in text


def test_nsp_command(identity_file, dup_file, capsys):
    assert cli.run(["nsp", "--matrix", identity_file, "--d", "1"]) == 0
    assert capsys.readouterr().out.startswith("holds")
    assert cli.run(["nsp", "--matrix", dup_file, "--d", "1"]) == 0
    assert capsys.readouterr().out.startswith("fails")


def test_recover_command(dup_file, tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = cli.run(["recover", "--matrix", dup_file, "--target", "e1",
                    "--unique", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "l1_value = 1.0" in text
    assert "unique: not_unique" in text
    assert "witness_alt:" in text
    x = read_vector_text(out)
    assert x.shape == (3,)


def test_recover_prints_the_support_it_decided_on(tmp_path, capsys):
    # 1.5e-9 is above simplex.FEAS_TOL relative to the largest entry, so
    # it is on the support that the l1 value counts and uniqueness decides
    id2 = tmp_path / "id2.txt"
    write_matrix_text(MeasurementMatrix(2, 2, np.eye(2), 1.0), id2)
    y = tmp_path / "y.txt"
    y.write_text("1 1.5e-9\n")
    assert cli.run(["recover", "--matrix", str(id2), "--y", str(y),
                    "--unique"]) == 0
    assert capsys.readouterr().out == (
        "l1_value = 1.0000000015\n"
        "minimizer: 2; 0:1,1:1.5e-09\n"
        "unique: unique\n")


def test_recover_infeasible_y(tmp_path, capsys):
    z = tmp_path / "z.txt"
    m = tmp_path / "m.txt"
    write_matrix_text(MeasurementMatrix(2, 2, np.zeros((2, 2)), 1.0), m)
    z.write_text("1 1\n")
    assert cli.run(["recover", "--matrix", str(m), "--y", str(z)]) == 1
    assert "error:" in capsys.readouterr().err


def test_recover_y_of_wrong_length(identity_file, tmp_path, capsys):
    z = tmp_path / "z.txt"
    z.write_text("1 0 0\n")  # the matrix has 4 rows
    assert cli.run(["recover", "--matrix", identity_file, "--y", str(z)]) == 1
    assert capsys.readouterr().err.startswith("error: y has 3 entries")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", [["l0", "--d-max", "1"],
                                     ["l0", "--d-max", "2"], ["recover"],
                                     ["recover", "--unique"]])
def test_nonfinite_y_exits_1(tmp_path, capsys, command, bad):
    # l0 printed the zero vector for (inf, 1, 2), recover an LP message
    m = tmp_path / "m.txt"
    a = np.random.default_rng(5).standard_normal((3, 50))
    write_matrix_text(MeasurementMatrix(3, 50, a, 1.0), m)
    z = tmp_path / "z.txt"
    z.write_text(f"{bad} 1 2\n")
    assert cli.run(command + ["--matrix", str(m), "--y", str(z)]) == 1
    assert capsys.readouterr() == ("", "error: y must be finite\n")


def test_matrix_header_needs_three_fields(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("2 2\n1 0\n0 1\n")
    assert cli.run(["recover", "--matrix", str(m), "--target", "e1"]) == 1
    assert capsys.readouterr().err.startswith("error: matrix header must be")


def test_l0_command(dup_file, capsys):
    assert cli.run(["l0", "--matrix", dup_file, "--target", "e1",
                    "--d-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 2" in out


def test_l0_d_max_above_2_exits_1(dup_file, capsys):
    assert cli.run(["l0", "--matrix", dup_file, "--target", "e1",
                    "--d-max", "3"]) == 1
    assert "d_max must lie in [0, 2]" in capsys.readouterr().err


def test_compat_command(identity_file, capsys):
    assert cli.run(["compat", "--matrix", identity_file, "--s", "1",
                    "--L", "1"]) == 0
    out = capsys.readouterr().out
    assert "phi2 = " in out
    assert cli.run(["compat", "--matrix", identity_file, "--s", "0",
                    "--L", "1"]) == 1  # 1-based indices
    capsys.readouterr()
    for l_budget in ("nan", "inf"):  # ended in a ZeroDivisionError
        assert cli.run(["compat", "--matrix", identity_file, "--s", "1",
                        "--L", l_budget]) == 1
        assert capsys.readouterr() == (
            "", "error: L must be finite and at least 1\n")


# a theorem-a cell at 3 x 5000: a sweep over one-element lists
def cell(*args):
    return ["sweep", "--N-list", "3", "--n-list", "5000", *args]


def test_theorem_a_stdout_covers_aggregate_row(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.run(cell("--trials-list", "2", "--seed", "7",
                        "--out", str(out), "--threads", "1"))
    assert code == 0
    stdout = capsys.readouterr().out
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_HEADER)
    agg = rows[-1]
    assert agg[6] == "-1"
    # consistency grep: every populated aggregate field appears on stdout
    for field in agg:
        if field:
            assert field in stdout, field


def test_theorem_a_deterministic_csv(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert cli.run(cell("--trials-list", "2", "--seed", "3",
                            "--out", str(path), "--threads", "1")) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_theorem_a_override_needs_both(tmp_path, capsys):
    args = cell("--trials-list", "1", "--seed", "1",
                "--out", str(tmp_path / "r.csv"))
    for given in (["--delta", "0.001"], ["--R", "9"]):
        assert cli.run(args + given) == 1
        assert capsys.readouterr().err == \
            "error: --delta and --R must be given together\n"
    assert not (tmp_path / "r.csv").exists()


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.run(["sweep", "--N-list", "3", "--n-list", "5000,6000",
                    "--trials-list", "2", "--seed", "11",
                    "--out", str(out), "--threads", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cell 0:" in stdout and "cell 1:" in stdout
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 7


def test_sweep_refuses_an_unwritable_out_before_any_cell(tmp_path, capsys,
                                                        monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("run_cell called")

    monkeypatch.setattr(cli._exp, "run_cell", no_cell)
    out = tmp_path / "missing" / "x.csv"
    assert cli.run(cell("--trials-list", "40", "--seed", "1",
                        "--out", str(out))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: [Errno 2] No such file or directory: "
                            f"'{out}'\n")
    # a writable --out is probed without leaving a file behind
    out = tmp_path / "x.csv"
    with pytest.raises(AssertionError, match="run_cell called"):
        cli.run(cell("--trials-list", "40", "--seed", "1", "--out", str(out)))
    assert not out.exists()


def test_sweep_infeasible_exit_1(tmp_path, capsys):
    code = cli.run(["sweep", "--N-list", "3", "--n-list", "400",
                    "--trials-list", "1", "--seed", "1",
                    "--out", str(tmp_path / "s.csv")])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_sweep_seed_range(tmp_path, capsys, seed):
    # as sample's: a seed outside [0, 2^64) is refused, not masked
    out = tmp_path / "x.csv"
    assert cli.run(cell("--trials-list", "1", "--seed", seed, "--out",
                        str(out), "--threads", "1")) == 1
    assert (capsys.readouterr().err
            == "error: seed must be a 64-bit unsigned integer\n")
    assert not out.exists()
    assert cli.run(["sample", "--N", "3", "--n", "100", "--seed", seed,
                    "--law", "gaussian", "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == "error: seed must be a 64-bit unsigned integer\n")


def test_sweep_nonfinite_r_exits_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.run(["sweep", "--N-list", "3", "--n-list", "100",
                    "--trials-list", "1", "--seed", "1", "--delta", "0.01",
                    "--R", "nan", "--force", "--threads", "1",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        "error: big_r must be nonnegative and finite\n")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
@pytest.mark.parametrize("command", [
    cell("--trials-list", "1", "--seed", "1"),
    cell("--trials-list", "1", "--seed", "1",
         "--delta", "0.002", "--R", "9", "--force")])
def test_threads_must_be_positive(tmp_path, capsys, command, threads):
    argv = command + ["--out", str(tmp_path / "x.csv"), "--threads", threads]
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert cli.run(argv) == 1  # run() folds usage errors into exit 1
    capsys.readouterr()
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [
    cell("--trials-list", "1", "--seed", "1"),
    cell("--trials-list", "1", "--seed", "1",
         "--delta", "0.002", "--R", "9", "--force")])
def test_gaussian_baseline_is_not_a_cell_check(tmp_path, capsys, command):
    argv = command + ["--out", str(tmp_path / "x.csv"), "--threads", "1",
                      "--checks", "nsp_gaussian_baseline"]
    assert cli.run(argv) == 1
    assert "run_gaussian_baseline" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
