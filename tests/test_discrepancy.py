import numpy as np
import pytest
from scipy.optimize import brentq

from regkit import (
    ConvergenceError,
    DataTooNoisyError,
    DenseOperator,
    DiscrepancyConfig,
    InvalidParameterError,
    IterativeSolverConfig,
    MatrixFreeOperator,
    MAX_DENSE_DIM,
    NoRootBelowError,
    PROBLEM_NAMES,
    add_noise,
    as_dense_matrix,
    diagonal_decomposition,
    discrepancy_value,
    make_problem,
    regularized_solve_auto,
    solve_alpha,
    solve_primal,
    svd_decompose,
)

from conftest import matrix_free_view, philox


SCALAR = diagonal_decomposition([1.0])


# --- discrepancy function -------------------------------------------------------

def test_scalar_value():
    # (alpha/(sigma^2+alpha))^2 f^2 = (1/2)^2 at sigma = f = alpha = 1.
    assert discrepancy_value(SCALAR, [1.0], 1.0) == pytest.approx(0.25)


def test_data_outside_range_is_untouched():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    f = np.array([0.0, 5.0])
    for alpha in (1e-8, 1e-2, 1.0, 1e6):
        assert discrepancy_value(decomp, f, alpha) == pytest.approx(25.0)


def test_large_alpha_limit_is_data_norm():
    prob = make_problem("deriv2", 16)
    fd = add_noise(prob, 1e-3, 2).f_delta
    g_inf = discrepancy_value(prob.decomp, fd, 1e14)
    assert g_inf == pytest.approx(np.linalg.norm(fd) ** 2, rel=1e-6)


def test_spectral_and_operator_forms_agree():
    prob = make_problem("deriv2", 16)
    fd = add_noise(prob, 1e-2, 3).f_delta
    free = matrix_free_view(prob.op)
    for alpha in np.logspace(-8, 6, 8):
        g_spec = discrepancy_value(prob.decomp, fd, alpha)
        g_dense = discrepancy_value(prob.op, fd, alpha)
        g_free = discrepancy_value(free, fd, alpha)
        assert abs(g_dense - g_spec) <= 1e-9 * g_spec
        assert abs(g_free - g_spec) <= 1e-9 * g_spec


def test_monotone_and_bounded_on_catalog():
    grid = np.logspace(-12, 12, 50)
    for name, n in [("diagonal", 16), ("hilbert", 16), ("deriv2", 32),
                    ("phillips", 32), ("gradient_family", 16)]:
        prob = make_problem(name, n)
        for seed in range(5):
            fd = add_noise(prob, 1e-3, seed).f_delta
            values = np.array(
                [discrepancy_value(prob.decomp, fd, a) for a in grid]
            )
            assert np.all(values[1:] >= values[:-1] * (1 - 1e-12)), (name, seed)
            assert np.all(values <= np.linalg.norm(fd) ** 2 * (1 + 1e-12))


def test_strictly_increasing_where_resolvable():
    # Strict growth where the filtered part of the data actually moves:
    # between the smallest and largest retained sigma^2.
    for name, n in [("diagonal", 16), ("deriv2", 32), ("phillips", 32)]:
        prob = make_problem(name, n)
        fd = add_noise(prob, 1e-3, 1).f_delta
        s = prob.decomp.singular_values
        window = np.geomspace(s[-1] ** 2, s[0] ** 2, 25)
        values = [discrepancy_value(prob.decomp, fd, a) for a in window]
        assert all(b > a for a, b in zip(values, values[1:])), name


# --- root solving ----------------------------------------------------------------

def test_scalar_root_small_target():
    # alpha/(1+alpha) = C*delta with f = 1: root C*delta/(1 - C*delta).
    sel = solve_alpha(SCALAR, [1.0], 0.1 / 1.5, DiscrepancyConfig(C=1.5))
    assert sel.alpha == pytest.approx(1.0 / 9.0, rel=1e-10)
    assert sel.achieved_residual == pytest.approx(0.1, rel=1e-10)


def test_scalar_root_half_target():
    sel = solve_alpha(SCALAR, [1.0], 0.5 / 1.5, DiscrepancyConfig(C=1.5))
    assert sel.alpha == pytest.approx(1.0, rel=1e-10)


def test_root_matches_brentq_oracle():
    prob = make_problem("diagonal", 6)
    delta = 1e-2
    fd = add_noise(prob, delta, 9).f_delta
    cfg = DiscrepancyConfig()
    sel = solve_alpha(prob.decomp, fd, delta, cfg)
    sigma = prob.op.values
    target = (cfg.C * delta) ** 2

    def analytic_gap(log_alpha):
        a = 10.0 ** log_alpha
        return float(np.sum((a / (sigma**2 + a)) ** 2 * fd**2)) - target

    oracle = 10.0 ** brentq(analytic_gap, -14, 14, xtol=1e-13)
    assert sel.alpha == pytest.approx(oracle, rel=1e-8)


def test_root_certificate_brackets_target():
    prob = make_problem("phillips", 32)
    delta = 1e-3
    fd = add_noise(prob, delta, 4).f_delta
    cfg = DiscrepancyConfig(C=2.0)
    sel = solve_alpha(prob.decomp, fd, delta, cfg)
    target = (cfg.C * delta) ** 2
    assert discrepancy_value(prob.decomp, fd, sel.alpha / 2) < target
    assert discrepancy_value(prob.decomp, fd, 2 * sel.alpha) > target
    assert abs(sel.achieved_residual - cfg.C * delta) <= 1e-10 * cfg.C * delta


def test_operator_form_root_matches_spectral_form():
    prob = make_problem("deriv2", 16)
    delta = 1e-3
    fd = add_noise(prob, delta, 6).f_delta
    spectral = solve_alpha(prob.decomp, fd, delta)
    free = solve_alpha(matrix_free_view(prob.op), fd, delta)
    assert free.alpha == pytest.approx(spectral.alpha, rel=1e-8)


def test_data_too_noisy_rejected():
    with pytest.raises(DataTooNoisyError) as err:
        solve_alpha(SCALAR, [0.1], 0.1, DiscrepancyConfig(C=1.5))
    assert err.value.data_norm == pytest.approx(0.1)
    assert err.value.threshold == pytest.approx(0.15)
    assert "C*delta" in str(err.value)


def test_pure_null_data_has_no_root_below():
    # ||f|| > C*delta but g is constant at ||f||^2 > (C*delta)^2.
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    with pytest.raises(NoRootBelowError) as err:
        solve_alpha(decomp, [0.0, 5.0], 0.1)
    assert err.value.g_at_zero == pytest.approx(25.0)


def test_matrix_free_null_data_has_no_root_below():
    # A^T f = 0: the Krylov space is exhausted before its first step.
    free = matrix_free_view(DenseOperator(np.diag([1.0, 0.0])))
    with pytest.raises(NoRootBelowError) as err:
        solve_alpha(free, [0.0, 5.0], 0.1)
    assert err.value.g_at_zero == pytest.approx(25.0)


def test_exact_data_rejected():
    with pytest.raises(InvalidParameterError):
        solve_alpha(SCALAR, [1.0], 0.0)


def test_root_budget_exhaustion():
    cfg = DiscrepancyConfig(root_rel_tolerance=1e-14, max_root_iterations=1)
    with pytest.raises(ConvergenceError):
        solve_alpha(SCALAR, [1.0], 0.123 / 1.5, cfg)


@pytest.mark.parametrize("kind", ["spectral", "dense", "matrix_free"])
def test_non_finite_data_rejected(kind):
    prob = make_problem("deriv2", 16)
    system = {
        "spectral": prob.decomp,
        "dense": prob.op,
        "matrix_free": matrix_free_view(prob.op),
    }[kind]
    f_delta = add_noise(prob, 1e-3, seed=2).f_delta.copy()
    f_delta[3] = np.nan
    with pytest.raises(InvalidParameterError, match="finite"):
        discrepancy_value(system, f_delta, 1e-3)
    with pytest.raises(InvalidParameterError, match="finite"):
        solve_alpha(system, f_delta, 1e-3)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        DiscrepancyConfig(C=1.0)
    with pytest.raises(InvalidParameterError):
        DiscrepancyConfig(alpha_bracket=(1.0, 0.5))
    with pytest.raises(InvalidParameterError):
        DiscrepancyConfig(root_rel_tolerance=0.0)


def test_selection_is_deterministic():
    prob = make_problem("diagonal", 8)
    fd = add_noise(prob, 1e-2, 12).f_delta
    first = solve_alpha(prob.decomp, fd, 1e-2)
    second = solve_alpha(prob.decomp, fd, 1e-2)
    assert first == second


# --- automatic solve --------------------------------------------------------------

def test_auto_scalar_closed_form():
    # f=1, noise +0.05: residual 1.05 alpha/(1+alpha) = 0.075 at alpha=1/13,
    # and u = 1.05 * 13/14 = 0.975 <= ||y|| = 1.
    solution, selection = regularized_solve_auto(
        SCALAR, [1.05], 0.05, DiscrepancyConfig(C=1.5)
    )
    assert selection.alpha == pytest.approx(1.0 / 13.0, rel=1e-9)
    assert solution.u[0] == pytest.approx(0.975, rel=1e-9)
    assert solution.solution_norm <= 1.0 * (1 + 1e-10)


def test_auto_error_decreases_with_noise():
    prob = make_problem("diagonal", 8)
    y_norm = np.linalg.norm(prob.y)
    errors = []
    for delta in (1e-2, 1e-3, 1e-4):
        fd = add_noise(prob, delta, 21).f_delta
        solution, selection = regularized_solve_auto(prob.decomp, fd, delta)
        errors.append(np.linalg.norm(solution.u - prob.y))
        assert solution.solution_norm <= y_norm * (1 + 1e-10)
        assert abs(solution.residual_norm - 1.5 * delta) <= 1e-9 * delta
        assert selection.alpha > 0
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_auto_null_data_never_returns_spurious_alpha():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    with pytest.raises((DataTooNoisyError, NoRootBelowError)):
        regularized_solve_auto(decomp, [0.0, 5.0], 0.1)


def test_auto_operator_route_matches_spectral_route():
    prob = make_problem("hilbert", 8)
    delta = 1e-3
    fd = add_noise(prob, delta, 2).f_delta
    sol_spec, sel_spec = regularized_solve_auto(prob.decomp, fd, delta)
    sol_op, sel_op = regularized_solve_auto(prob.op, fd, delta)
    assert sel_op.alpha == pytest.approx(sel_spec.alpha, rel=1e-8)
    assert np.linalg.norm(sol_op.u - sol_spec.u) <= 1e-8 * (sol_spec.solution_norm + 1e-300)


# --- one projection per selection ---------------------------------------------------

def _noisy(prob, rel_noise, seed):
    delta = rel_noise * float(np.linalg.norm(prob.f))
    return add_noise(prob, delta, seed).f_delta, delta


@pytest.mark.parametrize("name, rel_noise, seed", [("phillips", 1e-3, 1), ("deriv2", 1e-5, 3)])
def test_matrix_free_auto_beyond_toy_sizes(name, rel_noise, seed):
    # One CG solve per g(alpha) evaluation failed on both: phillips could
    # not reach the CG tolerance at alpha = 1e-14, and on deriv2 the CG
    # error of g near the root outlasted the root-search budget.
    prob = make_problem(name, 256)
    fd, delta = _noisy(prob, rel_noise, seed)
    solution, selection = regularized_solve_auto(matrix_free_view(prob.op), fd, delta)
    target = 1.5 * delta
    assert abs(selection.achieved_residual - target) <= 1e-8 * target
    assert abs(solution.residual_norm - target) <= 1e-8 * target
    assert solution.solution_norm <= np.linalg.norm(prob.y) * (1 + 1e-8)
    reference, _ = regularized_solve_auto(prob.decomp, fd, delta)
    assert np.linalg.norm(solution.u - reference.u) <= 1e-8 * reference.solution_norm


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_newton_root_search_is_short(name):
    for n in (16, 64):
        prob = make_problem(name, n)
        dense = DenseOperator(as_dense_matrix(prob.op))
        for rel_noise in 10.0 ** -np.arange(1, 7):
            fd, delta = _noisy(prob, rel_noise, 5)
            for system in (prob.decomp, dense):
                assert solve_alpha(system, fd, delta).iterations <= 12, (n, rel_noise)


def test_krylov_budget_exhaustion():
    prob = make_problem("phillips", 256)
    fd, delta = _noisy(prob, 1e-3, 1)
    cfg = IterativeSolverConfig(max_iterations=4)
    with pytest.raises(ConvergenceError, match="Golub-Kahan") as err:
        solve_alpha(matrix_free_view(prob.op), fd, delta, solver_cfg=cfg)
    assert err.value.iterations == 4


def test_non_finite_callback_output_rejected_in_selection():
    op = MatrixFreeOperator(3, 3, lambda x: x.copy(), lambda w: np.full(3, np.nan))
    with pytest.raises(InvalidParameterError, match="finite"):
        solve_alpha(op, np.ones(3), 0.1)


def test_dense_operator_above_factorization_cap_uses_krylov():
    matrix = philox(8).standard_normal((MAX_DENSE_DIM + 4, 3))
    dense = DenseOperator(matrix)
    f = matrix @ np.array([1.0, -2.0, 0.5])
    delta = 1e-3 * np.linalg.norm(f)
    noise = np.cos(np.arange(matrix.shape[0]))
    fd = f + delta * noise / np.linalg.norm(noise)
    solution, selection = regularized_solve_auto(dense, fd, delta)
    assert solution.iterations == 3  # the Krylov space spans the domain
    assert abs(solution.residual_norm - 1.5 * delta) <= 1e-8 * 1.5 * delta
    direct = solve_primal(dense, fd, selection.alpha)
    assert np.linalg.norm(solution.u - direct.u) <= 1e-10 * direct.solution_norm
