"""Command-line front end.

Subcommands: solve, choose-alpha, sweep, verify-bounds, list-problems.
Machine output (CSV or JSON) goes to --out or stdout; human summaries go
to stderr.  Exit codes: 0 success, 1 bound violation, 2 usage error,
3 precondition violation (data too noisy for the requested rule),
4 numerical non-convergence.

Flags may also be supplied as a JSON config file via --config, with keys
equal to the long flag names (hyphens as underscores); explicit flags
override the file.  REGKIT_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .errors import (
    ConvergenceError,
    DataTooNoisyError,
    DimensionMismatchError,
    InvalidParameterError,
    NoRootBelowError,
    NotInRangeError,
    SizeLimitError,
    UnknownProblemError,
    UnsupportedKindError,
)
from .problems import PROBLEM_NAMES, PROBLEM_SUMMARIES

USAGE_ERROR = 2
PRECONDITION_ERROR = 3
NONCONVERGENCE_ERROR = 4

_USAGE_EXCEPTIONS = (
    InvalidParameterError,
    UnknownProblemError,
    DimensionMismatchError,
    SizeLimitError,
    UnsupportedKindError,
)
_PRECONDITION_EXCEPTIONS = (DataTooNoisyError, NoRootBelowError, NotInRangeError)


def _default_seed():
    raw = os.environ.get("REGKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"REGKIT_SEED must be an integer, got {raw!r}"
        ) from None


def _csv_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals: {text!r}")


def _csv_ints(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def build_parser(config=None):
    """The CLI parser; a flag whose dest is in ``config`` defaults to that
    value and is not required (argparse applies the type to strings)."""
    config = config or {}

    def add(p, flag, **kw):
        dest = kw.get("dest", flag.lstrip("-").replace("-", "_"))
        if dest in config:
            kw.update(default=config[dest], required=False)
        p.add_argument(flag, **kw)

    parser = argparse.ArgumentParser(
        prog="regkit",
        description=(
            "Solve ill-posed linear systems by penalized least squares, with "
            "automatic choice of the penalty weight by residual matching."
        ),
    )
    parser.add_argument(
        "--config",
        help="JSON file of default flag values (keys = flag names)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        add(p, "--problem", required=True, choices=PROBLEM_NAMES)
        add(p, "--n", type=int, required=True, help="discretization size")
        add(
            p, "--p", type=float, default=None,
            help="decay exponent for the diagonal problem (default 2)",
        )

    def add_output_flags(p, default_format):
        add(p, "--out", help="write machine output to this path")
        add(
            p, "--format", choices=("csv", "json"), default=default_format,
            help=f"machine output format (default {default_format})",
        )

    p_solve = sub.add_parser("solve", help="solve one instance at a fixed alpha")
    add_problem_flags(p_solve)
    add(p_solve, "--alpha", type=float, required=True)
    add_output_flags(p_solve, "json")

    p_choose = sub.add_parser(
        "choose-alpha", help="pick alpha by residual matching on noisy data"
    )
    add_problem_flags(p_choose)
    add(p_choose, "--delta", type=float, required=True, help="noise level")
    add(p_choose, "--C", type=float, default=1.5, dest="C")
    add(p_choose, "--seed", type=int, default=None)
    add_output_flags(p_choose, "json")

    p_sweep = sub.add_parser(
        "sweep", help="run a decreasing sequence of noise levels"
    )
    add_problem_flags(p_sweep)
    add(
        p_sweep, "--deltas", type=_csv_floats, required=True,
        help="comma-separated decreasing noise levels",
    )
    add(p_sweep, "--rule", choices=("discrepancy", "apriori"), default="discrepancy")
    add(p_sweep, "--C", type=float, default=1.5, dest="C")
    add(p_sweep, "--seed", type=int, default=None)
    add_output_flags(p_sweep, "csv")

    p_bounds = sub.add_parser(
        "verify-bounds",
        help="check the solution-map norm bound across operator sizes",
    )
    add(p_bounds, "--family", default="gradient_family", choices=PROBLEM_NAMES)
    add(p_bounds, "--ns", type=_csv_ints, required=True)
    add(p_bounds, "--alphas", type=_csv_floats, required=True)
    add(p_bounds, "--p", type=float, default=None)
    add(p_bounds, "--out", help="write the table to this path")

    sub.add_parser("list-problems", help="list the problem catalog")
    return parser


def _load_config(argv):
    """The --config file named in argv, keyed by flag dest; {} without one."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return {}
    with open(known.config, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:
            raise InvalidParameterError(f"bad JSON in {known.config}: {exc}") from None
    if not isinstance(values, dict):
        raise InvalidParameterError("config file must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in values.items()}


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args, name):
    params = {}
    if args.p is not None:
        if name != "diagonal":
            raise InvalidParameterError("--p applies only to the diagonal problem")
        params["p"] = args.p
    return params


def _emit_records(records, args, single):
    if args.format == "json":
        text = (
            experiments.record_to_json(records[0])
            if single
            else experiments.records_to_json(records)
        )
    else:
        text = experiments.records_to_csv(records)
    _emit(text, args.out)


def _summary(record):
    return (
        f"{record.problem} n={record.n} delta={record.delta:g} C={record.C} "
        f"alpha={record.alpha:.6g} residual={record.residual:.6g} "
        f"error_to_y={record.error_to_y:.6g} |u|={record.u_norm:.6g} "
        f"|y|={record.y_norm:.6g} wall={record.wall_ms:.2f}ms"
    )


def _cmd_solve(args):
    record = experiments.run_solve(args.problem, args.n, args.alpha, _params(args, args.problem))
    _emit_records([record], args, single=True)
    print(_summary(record), file=sys.stderr)
    return 0


def _cmd_choose_alpha(args):
    seed = args.seed if args.seed is not None else _default_seed()
    record = experiments.run_choose_alpha(
        args.problem, args.n, args.delta, seed, args.C, _params(args, args.problem)
    )
    _emit_records([record], args, single=True)
    print(_summary(record), file=sys.stderr)
    return 0


def _cmd_sweep(args):
    seed = args.seed if args.seed is not None else _default_seed()
    records = experiments.run_sweep(
        args.problem, args.n, args.deltas, seed, args.rule, args.C, _params(args, args.problem)
    )
    _emit_records(records, args, single=False)
    print(experiments.sweep_summary(records), file=sys.stderr)
    return 0


def _cmd_verify_bounds(args):
    params = _params(args, args.family)
    report = experiments.run_verify_bounds(args.family, args.ns, args.alphas, params)
    _emit(experiments.bounds_table(report), args.out)
    return 0 if report.violations == 0 else 1


def _cmd_list_problems(_args):
    for name in PROBLEM_NAMES:
        sys.stdout.write(f"{name}: {PROBLEM_SUMMARIES[name]}\n")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "choose-alpha": _cmd_choose_alpha,
    "sweep": _cmd_sweep,
    "verify-bounds": _cmd_verify_bounds,
    "list-problems": _cmd_list_problems,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(_load_config(argv)).parse_args(argv)
        return _COMMANDS[args.command](args)
    except _PRECONDITION_EXCEPTIONS as exc:
        print(f"regkit: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except ConvergenceError as exc:
        print(f"regkit: {exc}", file=sys.stderr)
        return NONCONVERGENCE_ERROR
    except _USAGE_EXCEPTIONS as exc:
        print(f"regkit: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"regkit: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
