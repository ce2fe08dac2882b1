"""Experiment runners and record serialization for the command line.

Records serialize to CSV with a fixed header (or to JSON with the same
keys).  Floats are written at 17 significant digits so files re-parse
losslessly.  Wall-clock timings are measured and reported in console
summaries but written as 0 in machine output: runs with identical flags
and seed must produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import typing
from dataclasses import dataclass

from .discrepancy import DiscrepancyConfig, regularized_solve_auto
from .errors import (
    ConvergenceError,
    DataTooNoisyError,
    InvalidParameterError,
    NoRootBelowError,
    SizeLimitError,
)
from .operators import MAX_DENSE_DIM, _as_real, _check_alpha, _norm
from .problems import add_noise, make_problem
from .tikhonov import (
    apriori_alpha_schedule,
    solve_primal,
    solve_spectral,
    solution_operator_norm,
)

__all__ = [
    "ExperimentRecord",
    "CSV_HEADER",
    "records_to_csv",
    "parse_records_csv",
    "record_to_json",
    "records_to_json",
    "run_solve",
    "run_choose_alpha",
    "run_sweep",
    "sweep_summary",
    "BoundsRow",
    "BoundsReport",
    "run_verify_bounds",
    "bounds_table",
]

#: Marker in the C column for fixed-alpha solves.
C_FIXED = "fixed"
#: Marker in the C column for the a-priori schedule alpha = delta.
C_APRIORI = "apriori"


@dataclass(frozen=True)
class ExperimentRecord:
    """One solved instance, as written to CSV/JSON."""

    problem: str
    n: int
    delta: float
    C: str
    alpha: float
    residual: float
    error_to_y: float
    u_norm: float
    y_norm: float
    wall_ms: float


_TYPES = typing.get_type_hints(ExperimentRecord)
#: Field name -> the type that parses its CSV text, in schema order.
_PARSERS = {f.name: _TYPES[f.name] for f in dataclasses.fields(ExperimentRecord)}
CSV_HEADER = ",".join(_PARSERS)


def _f17(value):
    return f"{float(value):.17g}"


def _record_dict(record):
    """The record's fields in schema order, with wall time written as 0 (determinism).

    The CSV's 17 digits round-trip exactly, so JSON and CSV carry the same values.
    """
    return {**dataclasses.asdict(record), "wall_ms": 0.0}


def records_to_csv(records):
    lines = [CSV_HEADER]
    for record in records:
        values = _record_dict(record).values()
        lines.append(",".join(str(v) if isinstance(v, (str, int)) else _f17(v) for v in values))
    return "\n".join(lines) + "\n"


def parse_records_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidParameterError("CSV header does not match the record schema")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_PARSERS):
            raise InvalidParameterError(f"malformed CSV row: {ln!r}")
        records.append(ExperimentRecord(*(parse(v) for parse, v in zip(_PARSERS.values(), parts))))
    return records


def record_to_json(record):
    return json.dumps(_record_dict(record), indent=2) + "\n"


def records_to_json(records):
    return json.dumps([_record_dict(r) for r in records], indent=2) + "\n"


def _finish(problem, solution, delta, c_label, started):
    """The record of one row; a failed row, without a ``solution``, holds NaN."""
    wall = (time.perf_counter() - started) * 1e3
    if solution is None:
        alpha = residual = error_to_y = u_norm = math.nan
    else:
        alpha, residual, u_norm = solution.alpha, solution.residual_norm, solution.solution_norm
        error_to_y = _norm(solution.u - problem.y)
    return ExperimentRecord(
        problem=problem.name,
        n=problem.n,
        delta=float(delta),
        C=c_label,
        alpha=alpha,
        residual=residual,
        error_to_y=error_to_y,
        u_norm=u_norm,
        y_norm=_norm(problem.y),
        wall_ms=wall,
    )


def _system(problem):
    """What selection runs on: the operator's eager system, else the operator.

    The operator where its system waits for a failed space (phillips up
    to ``MAX_DENSE_DIM``, which tries a capped Golub-Kahan space before it
    factors) or where it has none (hilbert and phillips above it, whose
    space grows on the FFT apply).
    """
    return problem.op._eager_system or problem.op


def _solve_fixed(problem, f, alpha):
    """The filter sum on the problem's system, or the certified solve on its operator."""
    if problem.decomp is None:
        return solve_primal(problem.op, f, alpha)
    return solve_spectral(problem.decomp, f, alpha)


def run_solve(name, n, alpha, params=None):
    """Solve one instance with exact data at a fixed alpha."""
    started = time.perf_counter()
    problem = make_problem(name, n, **(params or {}))
    solution = _solve_fixed(problem, problem.f, alpha)
    return _finish(problem, solution, 0.0, C_FIXED, started)


def run_choose_alpha(name, n, delta, seed, C=1.5, params=None):
    """Select alpha by residual matching on noisy data, then solve."""
    started = time.perf_counter()
    cfg = DiscrepancyConfig(C=C)
    problem = make_problem(name, n, **(params or {}))
    noisy = add_noise(problem, delta, seed)
    solution, _selection = regularized_solve_auto(
        _system(problem), noisy.f_delta, noisy.delta, cfg
    )
    return _finish(problem, solution, noisy.delta, _f17(cfg.C), started)


def run_sweep(name, n, deltas, seed, rule="discrepancy", C=1.5, params=None):
    """One record per noise level; failures are recorded in-row as NaN.

    Rows are ordered by the given deltas regardless of execution order.
    The same seed drives every row, so the perturbation direction is
    shared and only its amplitude changes along the sweep.  C is read
    only by the discrepancy rule, before the problem is built.  An empty
    list of levels raises InvalidParameterError, before it too.
    """
    deltas = [_as_real(d, "noise level") for d in deltas]
    if not deltas:
        raise InvalidParameterError("a sweep needs at least one noise level")
    if not all(0 < d < math.inf for d in deltas):
        raise InvalidParameterError(f"all noise levels must be positive and finite, got {deltas}")
    if not all(b < a for a, b in zip(deltas, deltas[1:])):
        raise InvalidParameterError("noise levels must be strictly decreasing")
    if rule not in ("discrepancy", "apriori"):
        raise InvalidParameterError(
            f"unknown rule {rule!r}; expected 'discrepancy' or 'apriori'"
        )
    cfg = DiscrepancyConfig(C=C) if rule == "discrepancy" else None
    label = _f17(cfg.C) if rule == "discrepancy" else C_APRIORI
    problem = make_problem(name, n, **(params or {}))
    records = []
    for delta in deltas:
        started = time.perf_counter()
        noisy = add_noise(problem, delta, seed)
        try:
            if rule == "discrepancy":
                solution, _sel = regularized_solve_auto(
                    _system(problem), noisy.f_delta, noisy.delta, cfg
                )
            else:
                alpha = apriori_alpha_schedule(noisy.delta)
                solution = _solve_fixed(problem, noisy.f_delta, alpha)
        except (DataTooNoisyError, NoRootBelowError, ConvergenceError):
            solution = None
        records.append(_finish(problem, solution, noisy.delta, label, started))
    return records


def sweep_summary(records):
    """One-line summary: worst solution-to-exact norm ratio and error decay."""
    valid = [r for r in records if math.isfinite(r.error_to_y)]
    failed = len(records) - len(valid)
    if not valid:
        return f"sweep: no successful rows ({failed} failed)"
    largest = max(valid, key=lambda r: r.delta)
    smallest = min(valid, key=lambda r: r.delta)
    ratio = smallest.error_to_y / largest.error_to_y if largest.error_to_y else math.nan
    worst_norm = max(r.u_norm / r.y_norm for r in valid if r.y_norm)
    line = (
        f"sweep: max ||u||/||y|| = {worst_norm:.6f}, "
        f"error({smallest.delta:g})/error({largest.delta:g}) = {ratio:.6f}"
    )
    if failed:
        line += f" ({failed} row(s) failed)"
    return line


@dataclass(frozen=True)
class BoundsRow:
    n: int
    alpha: float
    operator_norm: float
    bound: float
    measured: float
    margin: float


@dataclass(frozen=True)
class BoundsReport:
    family: str
    rows: tuple
    violations: int


def run_verify_bounds(family, ns, alphas, params=None, slack=1e-12):
    """Measure the solution-map norm across a family of growing operators.

    For each size and alpha, checks measured <= (1 + slack) / (2 sqrt(alpha));
    the margin column reports bound - measured.  Both norms are read off the
    family's singular system, so hilbert and phillips above
    ``MAX_DENSE_DIM``, which have none, raise ``SizeLimitError``.  An
    alpha that is not positive raises InvalidParameterError before any
    row is measured, and each n is checked as ``make_problem`` checks it.
    An empty list of sizes or of alphas, which would vouch for nothing,
    raises InvalidParameterError before any problem is built.
    """
    alphas = [_check_alpha(alpha) for alpha in alphas]
    if not alphas or not ns:
        raise InvalidParameterError("verify-bounds needs at least one size and one alpha")
    rows = []
    violations = 0
    for n in ns:
        problem = make_problem(family, n, **(params or {}))
        decomp = problem.decomp
        if decomp is None:
            raise SizeLimitError(
                f"verify-bounds reads the singular values of {family}, which has "
                f"none above MAX_DENSE_DIM = {MAX_DENSE_DIM}; got n = {n}"
            )
        op_norm = float(decomp.singular_values[0]) if decomp.rank else 0.0
        for a in alphas:
            bound = 1.0 / (2.0 * math.sqrt(a))
            measured = solution_operator_norm(decomp, a)
            if measured > bound * (1.0 + slack):
                violations += 1
            rows.append(
                BoundsRow(
                    n=problem.n,
                    alpha=a,
                    operator_norm=op_norm,
                    bound=bound,
                    measured=measured,
                    margin=bound - measured,
                )
            )
    return BoundsReport(family=family, rows=tuple(rows), violations=violations)


def bounds_table(report):
    width = max([6] + [len(str(row.n)) for row in report.rows])
    header = f"{'n':>{width}} {'alpha':>10} {'||A||':>14} {'bound':>14} {'measured':>14} {'margin':>14}"
    lines = [f"family: {report.family}", header]
    for row in report.rows:
        lines.append(
            f"{row.n:>{width}} {row.alpha:>10.3g} {row.operator_norm:>14.6e} "
            f"{row.bound:>14.6e} {row.measured:>14.6e} {row.margin:>14.6e}"
        )
    lines.append(
        "all bounds hold" if report.violations == 0
        else f"VIOLATIONS: {report.violations}"
    )
    return "\n".join(lines) + "\n"
