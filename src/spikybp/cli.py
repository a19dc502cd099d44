"""Command-line front door.

One subcommand per library operation: plan, sample, moments, certify, nsp,
recover, l0, compat, sweep.  Flags only, no config file, so a run is fully
described by its shell history; --seed pins every output byte.

Exit codes: 0 success, 1 usage or domain error, 2 when `certify` finds a
failure certificate (lets shell pipelines branch on the verdict).
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys

import numpy as np

from . import certify as _certify
from . import experiments as _exp
from . import recovery as _rec
from .ensemble import (EnsembleSpec, ScalarLaw, moment_lp_norm, moment_ratio,
                       normalized_fourth_moment, plan_parameters,
                       read_matrix_text, sample_matrix, write_matrix_text)
from .simplex import IterationLimitError


def _csv_ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _checks_arg(text: str) -> frozenset:
    return frozenset(t.strip() for t in text.split(",") if t.strip())


def parse_target(text: str, dim: int) -> _rec.SparseVector:
    """"e<k>" (1-based unit vector) or a SparseVector literal "dim; i:v,..."."""
    t = text.strip()
    m = re.fullmatch(r"e([0-9]+)", t)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= dim:
            raise ValueError(f"target {t} out of range for {dim} columns")
        return _rec.SparseVector(dim, (k - 1,), (1.0,))
    v = _rec.SparseVector.parse(t)
    if v.dim != dim:
        raise ValueError(f"target dimension {v.dim} != matrix columns {dim}")
    return v


def _target_or_y(args, mat) -> np.ndarray:
    if getattr(args, "target", None) is not None:
        v = parse_target(args.target, mat.n_cols)
        return mat.entries @ v.to_dense()
    y = _rec.read_vector_text(args.y)
    if y.shape != (mat.n_rows,):
        raise ValueError(f"y has {y.shape[0]} entries, matrix has "
                         f"{mat.n_rows} rows")
    return y


def _cell_config(args, n_rows: int, n_cols: int, trials: int = 1, **kw):
    """The cell at one shape under --delta and --R (both or neither) and
    --force, once experiments.resolve_plan has checked its plan."""
    if (args.delta is None) != (args.big_r is None):
        raise ValueError("--delta and --R must be given together")
    overrides = None if args.delta is None else (args.delta, args.big_r)
    config = _exp.ExperimentConfig(n_rows, n_cols, trials, args.seed,
                                   planner_overrides=overrides,
                                   force=args.force, **kw)
    plan = _exp.resolve_plan(config)
    if not plan.feasible:
        print(f"warning: {_exp.plan_violation(plan)}", file=sys.stderr)
    return config


def _law_from_args(args, shape: tuple[int, int] | None = None):
    """--law; only a spiky law takes --delta and --R.

    With a shape (sample) it is the law of that shape's sweep cell, checked
    in the same words; with none (moments) --delta and --R are required."""
    if args.law != "spiky":
        if (args.delta, args.big_r) != (None, None):
            raise ValueError(f"--law {args.law} takes no --delta or --R")
        return getattr(ScalarLaw, args.law)()
    if shape is not None:
        return _exp.resolve_plan(_cell_config(args, *shape)).law()
    if args.delta is None or args.big_r is None:
        raise ValueError("spiky law needs --delta and --R")
    return ScalarLaw.spiky(args.delta, args.big_r)


def _print_cell(cell_id: int, config, stats) -> None:
    # repr() here matches the CSV field formatting, so every number in the
    # aggregate row also appears verbatim on stdout.
    plan = stats.plan
    print(f"cell {cell_id}: N={config.n_rows} n={config.n_cols} "
          f"trials={config.trials} seed={config.base_seed}")
    print(f"  delta={plan.delta!r} p={plan.p!r} R={plan.big_r!r}")
    print("  aggregate (trial=-1):")
    for name in sorted(stats.per_check):
        st = stats.per_check[name]
        lo, hi = st.wilson_95_interval
        print(f"    {name}: {st.successes}/{st.trials} "
              f"frequency={st.frequency!r} wilson=[{lo!r}, {hi!r}]")
    # a field whose event is not its own truth value has a mean of its own
    for row in _exp.CHECKS:
        st = stats.per_check.get(row.name)
        if st is not None and row.event is not bool:
            print(f"    {row.fields[0]} mean={st.mean!r}")


def cmd_plan(args) -> int:
    plan = plan_parameters(args.n_rows, args.n_cols)
    print(f"N = {plan.n_rows}  n = {plan.n_cols}")
    print(f"delta = {plan.delta!r}")
    print(f"p = {plan.p!r}")
    print(f"R = {plan.big_r!r}")
    for c in plan.conditions:
        print(f"{c.name} {'ok' if c.satisfied else 'VIOLATED'}: {c.detail}")
    if plan.feasible:
        print("feasible: yes")
    else:
        print(f"feasible: no (first violated: {plan.first_violated.name})")
    return 0


def cmd_sample(args) -> int:
    law = _law_from_args(args, (args.n_rows, args.n_cols))
    mat = sample_matrix(EnsembleSpec(law, args.n_rows, args.n_cols, args.seed))
    write_matrix_text(mat, args.out)
    extra = ""
    if law.kind == "spiky":
        extra = f" delta={law.delta!r} R={law.big_r!r}"
    print(f"wrote {args.out}: N={mat.n_rows} n={mat.n_cols} law={law.kind}"
          f"{extra} row_scale={mat.row_scale!r} seed={args.seed}")
    return 0


def cmd_moments(args) -> int:
    """Compute every line, then print: a rejected --p prints nothing."""
    law = _law_from_args(args)
    p = args.p
    lines = [f"law: {law.kind}" + (f" delta={law.delta!r} R={law.big_r!r}"
                                   if law.kind == "spiky" else ""),
             f"lp_norm(p={p!r}) = {moment_lp_norm(law, p)!r}"]
    if p >= 2:
        lines.append(f"normalized_lp_norm(p={p!r}) = {moment_ratio(law, p)!r}")
    lines.append(
        f"normalized_fourth_moment = {normalized_fourth_moment(law)!r}")
    print("\n".join(lines))
    return 0


def cmd_certify(args) -> int:
    mat = read_matrix_text(args.matrix)
    v = parse_target(args.target, mat.n_cols)
    cert = _certify.er_failure_certificate(mat, v)
    if cert is None:
        print(f"no certificate: basis pursuit not provably breakable at "
              f"target {args.target}")
        return 0
    text = _certify.format_certificate(cert)
    print("failure certificate found")
    print(text, end="")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    return 2


def cmd_nsp(args) -> int:
    mat = read_matrix_text(args.matrix)
    verdict = _certify.er_check_nsp(mat, args.d)
    print(_certify.format_verdict(verdict))
    return 0


def _support(x) -> str:
    """x on its support by recovery.support_tol, which certify_uniqueness
    decides on."""
    return _rec.SparseVector.from_dense(x, _rec.support_tol(x)).format()


def cmd_recover(args) -> int:
    mat = read_matrix_text(args.matrix)
    y = _target_or_y(args, mat)
    result = _rec.basis_pursuit(mat, y)
    if args.unique:
        result = _rec.certify_uniqueness(mat, y, result)
    x = result.minimizer
    print(f"l1_value = {result.l1_value!r}")
    print(f"minimizer: {_support(x)}")
    print(f"unique: {result.unique}")
    if result.witness_alt is not None:
        print(f"witness_alt: {_support(result.witness_alt)}")
    if args.out:
        _rec.write_vector_text(x, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_l0(args) -> int:
    mat = read_matrix_text(args.matrix)
    y = _target_or_y(args, mat)
    sols = _rec.l0_brute_force(mat, y, args.d_max)
    print(f"solutions: {len(sols)}")
    for s in sols:
        print(s.format())
    return 0


def cmd_compat(args) -> int:
    mat = read_matrix_text(args.matrix)
    s_set = tuple(k - 1 for k in args.s)
    if any(k < 0 for k in s_set):
        raise ValueError("--s takes 1-based column indices")
    value = _certify.compatibility_constant(mat, s_set, args.l_budget)
    print(f"S (1-based) = {sorted(args.s)}  L = {args.l_budget!r}")
    print(f"phi2 = {value.phi2!r}")
    print(f"iterations = {value.iterations}")
    print(f"beta_l1 = {float(np.sum(np.abs(value.minimizer_beta)))!r}")
    return 0


def cmd_sweep(args) -> int:
    """Check every cell's plan, then run the cells, write one CSV, print."""
    lists = (args.n_rows_list, args.n_cols_list, args.trials_list)
    if not all(lists) or args.checks == frozenset():
        raise ValueError("every sweep list, --checks too, must be nonempty")
    configs = [_cell_config(args, n_rows, n_cols, trials,
                            checks=args.checks or _exp.DEFAULT_CHECKS)
               for n_rows, n_cols, trials in itertools.product(*lists)]
    # an --out that cannot be written fails here, not after every cell;
    # a file made only for this probe goes again, as a failed sweep left none
    made = not os.path.lexists(args.out)
    with open(args.out, "a"):
        pass
    if made:
        os.remove(args.out)
    cells = [(config, _exp.run_cell(config, threads=args.threads))
             for config in configs]
    _exp.write_csv(args.out, cells)
    for cell_id, (config, stats) in enumerate(cells):
        _print_cell(cell_id, config, stats)
    print(f"wrote {args.out}")
    return 0


def _add_matrix(sp) -> None:
    sp.add_argument("--matrix", required=True, help="matrix text file")


def _add_target_or_y(sp) -> None:
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--target", help='"e<k>" (1-based) or "dim; i:v,..."')
    g.add_argument("--y", help="measurement vector text file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spikybp",
        description="Spiky measurement ensembles: basis-pursuit failure "
                    "certificates, l0 brute force, NSP checks, experiment "
                    "sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="planner outputs and the four "
                                     "feasibility conditions")
    sp.add_argument("--N", dest="n_rows", type=int, required=True)
    sp.add_argument("--n", dest="n_cols", type=int, required=True)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("sample", help="draw one seeded matrix to a file")
    sp.add_argument("--N", dest="n_rows", type=int, required=True)
    sp.add_argument("--n", dest="n_cols", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--law", choices=("spiky", "gaussian", "rademacher"),
                    default="spiky")
    sp.add_argument("--delta", type=float)
    sp.add_argument("--R", dest="big_r", type=float)
    sp.add_argument("--force", action="store_true",
                    help="sample even when the plan is infeasible")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("moments", help="Lp norms, Gaussian ratio, fourth "
                                        "moment for a scalar law")
    sp.add_argument("--law", choices=("spiky", "gaussian", "rademacher"),
                    required=True)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--R", dest="big_r", type=float)
    sp.add_argument("--p", type=float, required=True)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("certify", help="search for a basis-pursuit failure "
                                        "certificate at a target")
    _add_matrix(sp)
    sp.add_argument("--target", required=True,
                    help='"e<k>" (1-based) or "dim; i:v,..."')
    sp.add_argument("--out", help="write the certificate here")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("nsp", help="exact null space property check")
    _add_matrix(sp)
    sp.add_argument("--d", type=int, required=True, choices=(1, 2))
    sp.set_defaults(func=cmd_nsp)

    sp = sub.add_parser("recover", help="basis pursuit, optionally with a "
                                        "uniqueness certificate")
    _add_matrix(sp)
    _add_target_or_y(sp)
    sp.add_argument("--unique", action="store_true",
                    help="also decide uniqueness of the minimizer")
    sp.add_argument("--out", help="write the dense minimizer here")
    sp.set_defaults(func=cmd_recover)

    sp = sub.add_parser("l0", help="brute-force minimal-support solutions")
    _add_matrix(sp)
    _add_target_or_y(sp)
    sp.add_argument("--d-max", dest="d_max", type=int, required=True)
    sp.set_defaults(func=cmd_l0)

    sp = sub.add_parser("compat", help="compatibility constant phi^2(L, S)")
    _add_matrix(sp)
    sp.add_argument("--s", type=_csv_ints, required=True,
                    help="1-based column indices, e.g. 1 or 1,2")
    sp.add_argument("--L", dest="l_budget", type=float, required=True)
    sp.set_defaults(func=cmd_compat)

    sp = sub.add_parser("sweep", help="cartesian grid of seeded cells: "
                        "CSV plus a summary per cell")
    sp.add_argument("--N-list", dest="n_rows_list", type=_csv_ints,
                    required=True)
    sp.add_argument("--n-list", dest="n_cols_list", type=_csv_ints,
                    required=True)
    sp.add_argument("--trials-list", dest="trials_list", type=_csv_ints,
                    required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--checks", type=_checks_arg,
                    help="comma list from: " + ",".join(sorted(_exp.KNOWN_CHECKS)))
    sp.add_argument("--delta", type=float,
                    help="with --R: replaces every cell's (delta, R); "
                         "p stays ln(n)/ln(N)")
    sp.add_argument("--R", dest="big_r", type=float)
    sp.add_argument("--threads", type=_positive_int,
                    default=os.cpu_count() or 1)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    return ap


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the domain-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, _rec.NoSolutionError,
            IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
