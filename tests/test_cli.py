import json
import os
import subprocess
import sys

import numpy as np
import pytest

import regkit
from regkit import ConvergenceError, make_problem
from regkit.cli import main
from regkit.experiments import (
    CSV_HEADER,
    parse_records_csv,
    records_to_csv,
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


# --- verify-bounds ----------------------------------------------------------------------

def test_verify_bounds_table(capsys):
    code = main(["verify-bounds", "--family", "gradient_family",
                 "--ns", "8,16", "--alphas", "1e-2,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all bounds hold" in out
    assert out.count("\n") >= 6


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
], ids=["bad-int", "bad-real-list", "malformed-json"])
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


def test_csv_header_contract():
    assert CSV_HEADER == "problem,n,delta,C,alpha,residual,error_to_y,u_norm,y_norm,wall_ms"


def test_parse_rejects_foreign_header():
    with pytest.raises(Exception):
        parse_records_csv("a,b,c\n1,2,3\n")


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("diagonal", "hilbert", "deriv2", "phillips", "gradient_family"):
        assert name in out
