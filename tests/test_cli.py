import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import regkit
from regkit import (
    MAX_DENSE_DIM,
    ConvergenceError,
    InvalidParameterError,
    SizeLimitError,
    make_problem,
    solve_primal,
)
from regkit.cli import main
from regkit.experiments import (
    CSV_HEADER,
    ExperimentRecord,
    parse_records_csv,
    record_to_json,
    records_to_csv,
    records_to_json,
    run_choose_alpha,
    run_solve,
    run_sweep,
    run_verify_bounds,
    sweep_summary,
)


def _json_out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def test_import_leaves_scipy_unloaded():
    # A fresh interpreter: this test process may already hold scipy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(regkit.__file__)))
    probe = (
        "import sys, regkit, regkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- solve ---------------------------------------------------------------------

def test_solve_diagonal_closed_form(capsys):
    code = main(["solve", "--problem", "diagonal", "--n", "3", "--p", "1",
                 "--alpha", "1e-3"])
    assert code == 0
    record, err = _json_out(capsys)
    sigma = np.array([1.0, 0.5, 1.0 / 3.0])
    y = sigma.copy()
    alpha = 1e-3
    expected = np.sqrt(np.sum((alpha / (sigma**2 + alpha)) ** 2 * y**2))
    assert record["error_to_y"] == pytest.approx(expected, rel=1e-12)
    assert record["problem"] == "diagonal"
    assert record["C"] == "fixed"
    assert record["wall_ms"] == 0.0
    assert "wall=" in err


def test_solve_hilbert2_hand_values(capsys):
    code = main(["solve", "--problem", "hilbert", "--n", "2", "--alpha", "1"])
    assert code == 0
    record, _ = _json_out(capsys)
    # 2x2 normal equations solved by hand:
    # (A^T A + I) u = A^T f with A = [[1, 1/2], [1/2, 1/3]], f = A [1, 1].
    assert record["u_norm"] == pytest.approx(0.83430078906857474, rel=1e-10)
    assert record["residual"] == pytest.approx(0.65872275515623013, rel=1e-10)
    assert record["error_to_y"] == pytest.approx(0.66038689950537666, rel=1e-10)


def test_solve_rejects_nonpositive_alpha(capsys):
    code = main(["solve", "--problem", "diagonal", "--n", "3", "--alpha", "-1"])
    assert code == 2


def test_solve_rejects_p_on_other_problems(capsys):
    code = main(["solve", "--problem", "deriv2", "--n", "8", "--p", "1",
                 "--alpha", "1"])
    assert code == 2


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "diagonal"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "not-a-problem", "--n", "4", "--alpha", "1"])
    assert exc.value.code == 2


def test_solve_csv_format(capsys):
    code = main(["solve", "--problem", "diagonal", "--n", "3", "--alpha", "0.5",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    records = parse_records_csv(out)
    assert len(records) == 1
    assert records[0].alpha == 0.5


# --- choose-alpha ------------------------------------------------------------------

def test_choose_alpha_reports_certificate(capsys):
    code = main(["choose-alpha", "--problem", "diagonal", "--n", "2", "--p", "1",
                 "--delta", "0.05", "--C", "1.5", "--seed", "11"])
    assert code == 0
    record, _ = _json_out(capsys)
    assert abs(record["residual"] - 1.5 * record["delta"]) <= 1e-9 * record["delta"]
    assert record["u_norm"] <= record["y_norm"] * (1 + 1e-10)


def test_choose_alpha_data_too_noisy_exit_three(capsys):
    code = main(["choose-alpha", "--problem", "deriv2", "--n", "16",
                 "--delta", "0.5", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "C*delta" in err


def test_choose_alpha_tiny_noise_on_a_small_operator(capsys):
    # The root lies near 1e-39.  The data lie in the kept range of
    # diag(i^-20), so there is one, however small.
    code = main(["choose-alpha", "--problem", "diagonal", "--n", "64", "--p", "20",
                 "--delta", "1e-30"])
    assert code == 0
    record, err = _json_out(capsys)
    assert "residual=1.5e-30" in err
    assert abs(record["residual"] - 1.5e-30) <= 1e-10 * 1.5e-30


def test_choose_alpha_deterministic(capsys):
    argv = ["choose-alpha", "--problem", "phillips", "--n", "16",
            "--delta", "1e-2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_choose_alpha_seed_from_environment(capsys, monkeypatch):
    argv = ["choose-alpha", "--problem", "phillips", "--n", "16", "--delta", "1e-2"]
    monkeypatch.setenv("REGKIT_SEED", "5")
    assert main(argv) == 0
    from_env = capsys.readouterr().out
    assert main(argv + ["--seed", "5"]) == 0
    explicit = capsys.readouterr().out
    assert from_env == explicit


def test_a_seed_from_the_environment_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("REGKIT_SEED", "x")
    argv = ["choose-alpha", "--problem", "diagonal", "--n", "8", "--delta", "1e-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "REGKIT_SEED must be an integer" in captured.err


def test_out_in_a_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "record.json"
    argv = ["solve", "--problem", "diagonal", "--n", "3", "--alpha", "0.1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "missing" in captured.err
    assert not out.parent.exists()


def test_solve_above_the_cap_takes_the_certified_solve(capsys):
    # hilbert has no singular system past MAX_DENSE_DIM, so the fixed-alpha
    # solve grows a Golub-Kahan space on the FFT apply.
    n, alpha = 5000, 1e-2
    assert n > MAX_DENSE_DIM
    assert main(["solve", "--problem", "hilbert", "--n", str(n), "--alpha", str(alpha)]) == 0
    record, _ = _json_out(capsys)
    problem = make_problem("hilbert", n)
    u = solve_primal(problem.op, problem.f, alpha).u
    assert record["error_to_y"] == float(np.linalg.norm(u - problem.y))
    assert record["u_norm"] == float(np.linalg.norm(u)) <= record["y_norm"]


def test_nonconvergence_exit_four(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("stalled", iterations=7)

    monkeypatch.setattr("regkit.cli.experiments.run_choose_alpha", boom)
    code = main(["choose-alpha", "--problem", "diagonal", "--n", "3",
                 "--delta", "0.01", "--seed", "1"])
    assert code == 4


# --- sweep ---------------------------------------------------------------------------

def test_sweep_writes_ordered_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--problem", "diagonal", "--n", "8",
                 "--deltas", "1e-2,1e-3,1e-4", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    records = parse_records_csv(text)
    assert [r.delta for r in records] == sorted((r.delta for r in records), reverse=True)
    assert all(abs(r.residual - 1.5 * r.delta) <= 1e-8 * r.delta for r in records)
    summary = capsys.readouterr().err
    assert "max ||u||/||y||" in summary


def test_sweep_requires_decreasing_deltas(capsys):
    code = main(["sweep", "--problem", "diagonal", "--n", "8",
                 "--deltas", "1e-3,1e-2", "--seed", "3"])
    assert code == 2


def test_sweep_apriori_rule(capsys):
    code = main(["sweep", "--problem", "diagonal", "--n", "8",
                 "--deltas", "1e-2,1e-3", "--rule", "apriori", "--seed", "3"])
    assert code == 0
    records = parse_records_csv(capsys.readouterr().out)
    assert all(r.C == "apriori" for r in records)
    assert all(r.alpha == pytest.approx(r.delta, rel=1e-12) for r in records)


def test_sweep_apriori_error_matches_splitting_bound():
    # Error splits into noise term delta/(2 sqrt(alpha)) plus the exact-data
    # defect alpha (A^T A + alpha I)^{-1} y, both closed-form on the
    # diagonal problem; the measured error sits within a factor 2.
    prob = make_problem("diagonal", 8)
    sigma = prob.op.values
    records = run_sweep("diagonal", 8, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
                        seed=3, rule="apriori")
    for record in records:
        alpha = record.alpha
        bound = record.delta / (2.0 * np.sqrt(alpha)) + np.linalg.norm(
            alpha * prob.y / (sigma**2 + alpha)
        )
        assert record.error_to_y <= bound * (1 + 1e-12)
        assert record.error_to_y >= bound / 2.0


def test_sweep_json_format(capsys):
    code = main(["sweep", "--problem", "diagonal", "--n", "8",
                 "--deltas", "1e-2,1e-3", "--seed", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list) and len(rows) == 2


def test_sweep_records_failures_in_row():
    # delta=0.2 exceeds ||f||/C on deriv2(16): row is NaN, sweep continues.
    records = run_sweep("deriv2", 16, [0.2, 1e-3], seed=1)
    assert np.isnan(records[0].alpha)
    assert np.isfinite(records[1].alpha)
    assert "failed" in sweep_summary(records)


def test_sweep_summary_without_a_successful_row():
    records = run_sweep("deriv2", 16, [0.5, 0.2], seed=1)
    assert all(np.isnan(r.alpha) for r in records)
    assert sweep_summary(records) == "sweep: no successful rows (2 failed)"


# float(C) leaked ValueError ("x") and TypeError (None); run_choose_alpha
# raised it only after building the problem and adding noise.
@pytest.mark.parametrize("C", ["x", None])
def test_runners_refuse_a_C_that_is_not_a_number_before_building(monkeypatch, C):
    built = []
    monkeypatch.setattr("regkit.experiments.make_problem", lambda *args, **kwargs: built.append(args))
    with pytest.raises(InvalidParameterError, match="C must be a real number"):
        run_choose_alpha("diagonal", 8, 1e-3, seed=1, C=C)
    with pytest.raises(InvalidParameterError, match="C must be a real number"):
        run_sweep("diagonal", 8, [1e-2], seed=1, C=C)
    assert built == []


# float(d) leaked ValueError ("x") and TypeError (None).
@pytest.mark.parametrize("deltas", [["x"], [None], [0.1, "x"]])
def test_sweep_refuses_a_level_that_is_not_a_number(deltas):
    with pytest.raises(InvalidParameterError, match="noise level must be a real number"):
        run_sweep("diagonal", 8, deltas, seed=1)


# nan after 0.1 was refused as "not strictly decreasing".
@pytest.mark.parametrize("deltas", [[0.1, math.nan], [math.nan], [0.1, 0.0], [1e-2, -1e-3]])
def test_sweep_refuses_a_level_that_is_not_positive(deltas):
    with pytest.raises(InvalidParameterError, match="noise levels must be positive"):
        run_sweep("diagonal", 8, deltas, seed=1)


def _builds(monkeypatch):
    """The arguments of every problem the runners build from now on."""
    built = []
    monkeypatch.setattr("regkit.experiments.make_problem", lambda *args, **kwargs: built.append(args))
    return built


# inf passed the check, and delta = inf was refused only after the problem
# was built.
@pytest.mark.parametrize("deltas", [[math.inf], [math.inf, 1e-3]])
def test_sweep_refuses_an_infinite_level_before_building(monkeypatch, deltas):
    built = _builds(monkeypatch)
    with pytest.raises(InvalidParameterError, match="noise levels must be positive"):
        run_sweep("deriv2", 32, deltas, seed=1)
    assert built == []


# Each printed an empty table and "all bounds hold", or a CSV of only its
# header, and exited 0.
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-bounds", "--family", "deriv2", "--ns", "", "--alphas", "1e-2"],
        ["verify-bounds", "--family", "deriv2", "--ns", "64", "--alphas", ","],
        ["sweep", "--problem", "deriv2", "--n", "16", "--deltas", ","],
    ],
)
def test_an_empty_list_is_refused_before_building(monkeypatch, capsys, argv):
    built = _builds(monkeypatch)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least one" in err
    assert built == []


# --- verify-bounds ----------------------------------------------------------------------

def test_verify_bounds_table(capsys):
    code = main(["verify-bounds", "--family", "gradient_family",
                 "--ns", "8,16", "--alphas", "1e-2,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all bounds hold" in out
    assert out.count("\n") >= 6


@pytest.mark.parametrize("family", ["deriv2", "gradient_family"])
def test_verify_bounds_columns_line_up_past_six_digits(capsys, family):
    code = main(["verify-bounds", "--family", family,
                 "--ns", "16,1000000", "--alphas", "1e-4,1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()[1:-1]
    assert len(lines) == 5
    # Every column ends where the header's does.
    ends = [[i for i in range(1, len(ln) + 1) if ln[i - 1] != " " and ln[i:i + 1] in ("", " ")]
            for ln in lines]
    assert all(e == ends[0] for e in ends), lines
    assert len(ends[0]) == 6


def test_verify_bounds_p_on_other_family_exits_two(capsys):
    code = main(["verify-bounds", "--family", "deriv2", "--ns", "16",
                 "--alphas", "1", "--p", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p applies only to the diagonal problem" in captured.err


def test_verify_bounds_violation_exits_one(capsys, monkeypatch):
    from regkit.experiments import BoundsReport, BoundsRow

    fake = BoundsReport(
        family="gradient_family",
        rows=(BoundsRow(n=8, alpha=1.0, operator_norm=16.0, bound=0.5,
                        measured=0.6, margin=-0.1),),
        violations=1,
    )
    monkeypatch.setattr(
        "regkit.cli.experiments.run_verify_bounds", lambda *a, **k: fake
    )
    code = main(["verify-bounds", "--family", "gradient_family",
                 "--ns", "8", "--alphas", "1"])
    assert code == 1
    assert "VIOLATIONS" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["hilbert", "phillips"])
def test_verify_bounds_without_a_singular_system_exits_two(capsys, family):
    # Above the cap these have no system; reading its values raised AttributeError.
    with pytest.raises(SizeLimitError, match=str(MAX_DENSE_DIM)):
        run_verify_bounds(family, [MAX_DENSE_DIM + 1], [1.0])
    argv = ["verify-bounds", "--family", family, "--ns", f"16,{MAX_DENSE_DIM + 1}", "--alphas", "1"]
    assert main(argv) == 2
    assert str(MAX_DENSE_DIM) in capsys.readouterr().err


# 0 raised ZeroDivisionError and -1 a math-domain ValueError, so the process
# exited 1, the code of a bound violation, with a traceback.
@pytest.mark.parametrize("alphas", ["0", "-1", "1,0", "nan"])
def test_verify_bounds_refuses_a_nonpositive_alpha(capsys, alphas):
    argv = ["verify-bounds", "--family", "gradient_family", "--ns", "8", "--alphas", alphas]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "alpha must be positive" in captured.err
    with pytest.raises(InvalidParameterError, match="alpha must be positive"):
        run_verify_bounds("gradient_family", [8], [float(a) for a in alphas.split(",")])


def test_verify_bounds_takes_no_fractional_size():
    # int(8.5) ran n = 8.
    with pytest.raises(InvalidParameterError, match="n must be an integer"):
        run_verify_bounds("gradient_family", [8.5], [1.0])
    assert [row.n for row in run_verify_bounds("gradient_family", [8.0], [1.0]).rows] == [8]


def test_verify_bounds_library_report():
    report = run_verify_bounds("gradient_family", [8, 16], [1e-2, 1.0])
    assert report.violations == 0
    norms = [row.operator_norm for row in report.rows]
    assert norms[-1] > norms[0]
    for row in report.rows:
        assert row.measured <= row.bound * (1 + 1e-12)
        assert row.margin >= -1e-12 * row.bound


# --- config file and serialization ---------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"problem": "diagonal", "n": 3, "p": 1.0, "alpha": 1e-3}
    ))
    code = main(["--config", str(cfg), "solve"])
    assert code == 0
    record, _ = _json_out(capsys)
    assert record["problem"] == "diagonal"
    assert record["alpha"] == 1e-3


def test_config_file_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "diagonal", "n": 3, "alpha": 1e-3}))
    code = main(["--config", str(cfg), "solve", "--alpha", "0.5"])
    assert code == 0
    record, _ = _json_out(capsys)
    assert record["alpha"] == 0.5


def test_config_file_coerces_flag_style_strings(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"problem": "diagonal", "n": 8, "deltas": "1e-2,1e-3", "seed": 3}
    ))
    code = main(["--config", str(cfg), "sweep"])
    assert code == 0
    records = parse_records_csv(capsys.readouterr().out)
    assert [r.delta for r in records] == pytest.approx([1e-2, 1e-3], rel=1e-12)


@pytest.mark.parametrize("text", [
    '{"problem": "diagonal", "n": "abc", "deltas": "1e-2"}',
    '{"problem": "diagonal", "n": 8, "deltas": "1e-2,x"}',
    '{"problem": "diagonal", "n": ',
    '["diagonal", 8]',
], ids=["bad-int", "bad-real-list", "malformed-json", "not-an-object"])
def test_config_file_bad_values_exit_two(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    try:
        code = main(["--config", str(cfg), "sweep"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_csv_roundtrip_is_lossless():
    records = [
        run_solve("diagonal", 3, 0.1234567890123456789, {"p": 1.0}),
        run_choose_alpha("phillips", 16, 1e-3, seed=2),
    ]
    text = records_to_csv(records)
    reparsed = parse_records_csv(text)
    assert records_to_csv(reparsed) == text
    for before, after in zip(records, reparsed):
        for field in ("problem", "n", "delta", "C", "alpha", "residual",
                      "error_to_y", "u_norm", "y_norm"):
            a, b = getattr(before, field), getattr(after, field)
            assert a == b or a == pytest.approx(b, rel=0, abs=0)


_GOLDEN_RECORDS = (
    ExperimentRecord("deriv2", 32, math.nan, "1.5", -0.0, 5e-324,
                     1.7976931348623157e308, 0.1, 1.0 / 3.0, 12.5),
    ExperimentRecord("diagonal", 4097, 1e-13, "apriori", math.nan, math.nan,
                     math.nan, math.nan, 2.0, 0.25),
)

_GOLDEN_JSON = (
    """{
  "problem": "deriv2",
  "n": 32,
  "delta": NaN,
  "C": "1.5",
  "alpha": -0.0,
  "residual": 5e-324,
  "error_to_y": 1.7976931348623157e+308,
  "u_norm": 0.1,
  "y_norm": 0.3333333333333333,
  "wall_ms": 0.0
}""",
    """{
  "problem": "diagonal",
  "n": 4097,
  "delta": 1e-13,
  "C": "apriori",
  "alpha": NaN,
  "residual": NaN,
  "error_to_y": NaN,
  "u_norm": NaN,
  "y_norm": 2.0,
  "wall_ms": 0.0
}""",
)


def test_record_serialization_is_byte_exact():
    # nan, -0.0, the smallest subnormal and the largest double survive; wall
    # time is written as 0 whatever was measured.
    assert record_to_json(_GOLDEN_RECORDS[0]) == _GOLDEN_JSON[0] + "\n"
    listed = ",\n  ".join(text.replace("\n", "\n  ") for text in _GOLDEN_JSON)
    assert records_to_json(_GOLDEN_RECORDS) == "[\n  " + listed + "\n]\n"
    assert records_to_csv(_GOLDEN_RECORDS) == (
        CSV_HEADER + "\n"
        "deriv2,32,nan,1.5,-0,4.9406564584124654e-324,1.7976931348623157e+308,"
        "0.10000000000000001,0.33333333333333331,0\n"
        "diagonal,4097,1e-13,apriori,nan,nan,nan,nan,2,0\n"
    )


def test_csv_header_contract():
    assert CSV_HEADER == "problem,n,delta,C,alpha,residual,error_to_y,u_norm,y_norm,wall_ms"


def test_parse_rejects_foreign_header():
    with pytest.raises(Exception):
        parse_records_csv("a,b,c\n1,2,3\n")


def test_parse_rejects_a_row_of_the_wrong_length():
    with pytest.raises(InvalidParameterError, match="malformed CSV row"):
        parse_records_csv(CSV_HEADER + "\ndiagonal,3,0\n")


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("diagonal", "hilbert", "deriv2", "phillips", "gradient_family"):
        assert name in out
