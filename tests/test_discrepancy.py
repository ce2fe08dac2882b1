import numpy as np
import pytest
from scipy.optimize import brentq

from regkit import (
    ConvergenceError,
    DataTooNoisyError,
    DenseOperator,
    DiagonalOperator,
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
    solve_spectral,
    svd_decompose,
)

from regkit.discrepancy import _root
from regkit.operators import _KrylovProjection, _Projection

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


def test_data_norm_one_ulp_above_the_target():
    # ||f|| = 3 and C*delta = 3 - 4.4e-16: ||f||^2 - g(0+) meets the target
    # to rounding, which leaves the first step from alpha = infinity no
    # room.  It goes far out instead, where g meets ||f||^2 to rounding.
    delta = np.nextafter(2.0, 0.0)
    selection = solve_alpha(diagonal_decomposition([1.0, 0.5, 0.25]), [1.0, 2.0, 2.0], delta)
    assert selection.iterations == 1
    assert abs(selection.achieved_residual - 1.5 * delta) <= 1e-10 * 1.5 * delta


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
    # Two singular values: the first step, exact for one, misses the root.
    cfg = DiscrepancyConfig(root_rel_tolerance=1e-14, max_root_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        solve_alpha(diagonal_decomposition([1.0, 0.1]), [1.0, 1.0], 0.123 / 1.5, cfg)
    assert err.value.iterations == 1


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


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
def test_stated_delta_must_be_a_number(bad):
    # None leaked TypeError and "x" ValueError from float().
    with pytest.raises(InvalidParameterError, match="delta"):
        solve_alpha(DiagonalOperator([1.0, 0.5]), [1.0, 1.0], bad)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        DiscrepancyConfig(C=1.0)
    with pytest.raises(InvalidParameterError):
        DiscrepancyConfig(root_rel_tolerance=0.0)


# A string leaked TypeError from the comparison.
@pytest.mark.parametrize("field", ["C", "root_rel_tolerance"])
@pytest.mark.parametrize("bad", ["x", None, [2.0]], ids=["string", "none", "list"])
def test_config_refuses_a_value_that_is_not_a_number(field, bad):
    with pytest.raises(InvalidParameterError, match=field):
        DiscrepancyConfig(**{field: bad})


# nan leaked a ValueError from int(); 2.5 was accepted.
@pytest.mark.parametrize("count", [float("nan"), float("inf"), 2.5, "100", 0])
def test_config_refuses_a_non_integral_root_budget(count):
    with pytest.raises(InvalidParameterError, match="max_root_iterations"):
        DiscrepancyConfig(max_root_iterations=count)


def test_config_takes_an_integral_root_budget():
    # 200.0 passed the old check, then range() refused it mid-search.
    cfg = DiscrepancyConfig(C=1.5, max_root_iterations=200.0)
    assert solve_alpha(SCALAR, [1.0], 0.1 / 1.5, cfg).alpha == pytest.approx(1.0 / 9.0, rel=1e-10)


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


def _evaluated_alphas(monkeypatch, projection_class):
    """Every alpha at which g is evaluated on projections of the given class."""
    alphas = []
    discrepancy_at = projection_class.discrepancy

    def counted(self, alpha):
        alphas.append(alpha)
        return discrepancy_at(self, alpha)

    monkeypatch.setattr(projection_class, "discrepancy", counted)
    return alphas


@pytest.mark.parametrize("route", ["spectral", "krylov"])
def test_bracket_ends_are_not_evaluated_around_an_inside_root(route, monkeypatch):
    prob = make_problem("deriv2", 256)
    delta = 1e-3 * np.linalg.norm(prob.f)
    fd = add_noise(prob, delta, 4).f_delta
    if route == "spectral":
        system, projection_class = prob.decomp, _Projection
    else:
        system, projection_class = matrix_free_view(prob.op), _KrylovProjection
    alphas = _evaluated_alphas(monkeypatch, projection_class)
    selection = solve_alpha(system, fd, delta)
    assert selection.bracket_expansions == 0
    if route == "spectral":
        assert len(alphas) == selection.iterations


def _root_near_1e_19():
    """A diagonal whose root lies near 1e-19: (values, f_delta, delta)."""
    values = 1e-5 * np.geomspace(1.0, 1e-3, 40)
    rng = philox(4)
    f = values * rng.standard_normal(40)
    delta = 1e-6 * np.linalg.norm(f)
    return values, f + 0.5 * delta * rng.standard_normal(40) / np.sqrt(40), delta


@pytest.mark.parametrize(
    "case, start",
    [
        # Newton on phi from alpha = 1e-4, right of the root near 2.1, steps
        # to beta = -1645 / 1e-4.
        (([0.65, 0.06, 2e-4], np.array([-0.17, -0.004, -0.05]), 0.1), 1e-4),
        # g and its slope underflow to 0 at the start.
        (_root_near_1e_19(), 1e-300),
    ],
    ids=["negative_beta", "underflow"],
)
def test_start_right_of_the_root_restarts_from_alpha_infinity(case, start, monkeypatch):
    # The search goes on from the closed-form first step, as one without a
    # start does, and ends at the same root.
    values, fd, delta = case
    projection = diagonal_decomposition(values)._project(fd)
    alphas = _evaluated_alphas(monkeypatch, _Projection)
    cold = _root(projection, 1.5 * delta, DiscrepancyConfig())
    assert len(alphas) == cold.iterations
    first = alphas[0]
    alphas.clear()
    warm = _root(projection, 1.5 * delta, DiscrepancyConfig(), start=start)
    assert alphas[:2] == [start, first]
    assert warm.iterations == cold.iterations + 1
    assert warm.alpha == cold.alpha


def test_root_near_1e_19_needs_no_bracket(monkeypatch):
    values, fd, delta = _root_near_1e_19()
    alphas = _evaluated_alphas(monkeypatch, _Projection)
    selection = solve_alpha(diagonal_decomposition(values), fd, delta)
    assert 1e-20 < selection.alpha < 1e-18
    assert len(alphas) == selection.iterations <= 12
    assert abs(selection.achieved_residual - 1.5 * delta) <= 1e-10 * 1.5 * delta


_SCALES = (1e-18, 1e-16, 1.0, 1e18, 1e22)


def _scaled(kind, scale):
    """s diag(1, 1/2, 1/4, 1/8) as a dense, a diagonal or a matrix-free operator."""
    values = scale * np.array([1.0, 0.5, 0.25, 0.125])
    if kind == "diagonal":
        return DiagonalOperator(values)
    dense = DenseOperator(np.diag(values))
    return dense if kind == "dense" else matrix_free_view(dense)


@pytest.mark.parametrize("kind", ["dense", "diagonal", "matrix_free"])
@pytest.mark.parametrize("scale", _SCALES)
def test_selection_is_invariant_to_the_scale_of_the_operator(kind, scale):
    # The data f_delta and delta stay fixed while A becomes s A.  Then
    # g_{sA}(s^2 alpha) = g_A(alpha), so the root moves to s^2 alpha and the
    # solution to u / s, on full-rank operators however small or large.
    values = np.array([1.0, 0.5, 0.25, 0.125])
    f = values * np.ones(4)
    delta = 1e-3 * np.linalg.norm(f)
    noise = philox(17).standard_normal(4)
    fd = f + delta * noise / np.linalg.norm(noise)
    cfg = DiscrepancyConfig()
    reference, unit = regularized_solve_auto(_scaled(kind, 1.0), fd, delta, cfg)
    solution, selection = regularized_solve_auto(_scaled(kind, scale), fd, delta, cfg)
    target = cfg.C * delta
    assert abs(selection.achieved_residual - target) <= cfg.root_rel_tolerance * target
    assert selection.alpha == pytest.approx(scale**2 * unit.alpha, rel=cfg.root_rel_tolerance)
    assert np.linalg.norm(scale * solution.u - reference.u) <= 1e-8 * np.linalg.norm(reference.u)


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


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_decomposition_solve_reuses_the_selection_projection(name):
    # The selection's projection and g(alpha) give the solution and its
    # residual, bit for bit what solve_spectral computes at that alpha.
    prob = make_problem(name, 32)
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), seed=5)
    solution, selection = regularized_solve_auto(prob.decomp, noisy.f_delta, noisy.delta)
    again = solve_spectral(prob.decomp, noisy.f_delta, selection.alpha)
    np.testing.assert_array_equal(solution.u, again.u)
    assert solution.residual_norm == again.residual_norm
    assert solution.residual_norm == np.sqrt(selection.g_value)
    assert (solution.path, solution.iterations) == ("spectral", 0)


def _deriv2_system(route, prob):
    if route == "spectral":
        return prob.decomp
    if route == "dense":
        return DenseOperator(prob.op.matrix)
    return matrix_free_view(prob.op)


@pytest.mark.parametrize("k", [520, 600, -600])
@pytest.mark.parametrize("route", ["spectral", "dense", "matrix_free"])
def test_selection_is_invariant_to_the_scale_of_the_data(route, k):
    # Scaling f_delta and delta by 2^k scales g by 4^k: at k = 520 its
    # squares overflow, and at k = -600 ||f_delta||^2 underflows to 0.
    prob = make_problem("deriv2", 64)
    noisy = add_noise(prob, 1e-2 * np.linalg.norm(prob.f), 5)
    solution, selection = regularized_solve_auto(
        _deriv2_system(route, prob), noisy.f_delta, noisy.delta
    )
    scale = 2.0**k
    scaled, scaled_selection = regularized_solve_auto(
        _deriv2_system(route, prob), noisy.f_delta * scale, noisy.delta * scale
    )
    assert scaled_selection.alpha == selection.alpha
    assert scaled_selection.achieved_residual == selection.achieved_residual * scale
    assert np.array_equal(scaled.u, solution.u * scale)
    assert scaled.path == solution.path and scaled.iterations == solution.iterations
    assert scaled.solution_norm == pytest.approx(solution.solution_norm * scale, rel=1e-15)
    assert scaled.residual_norm == pytest.approx(solution.residual_norm * scale, rel=1e-15)


def test_a_spent_budget_reports_the_iterate_in_the_data_units():
    # The Krylov space certifies nothing within 10 steps; the error's x_k
    # belongs to the data as given, not to the data the search divided.
    prob = make_problem("deriv2", 256)
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), 1)
    cfg = IterativeSolverConfig(max_iterations=10)
    errors = []
    for scale in (1.0, 2.0**600):
        with pytest.raises(ConvergenceError) as err:
            regularized_solve_auto(
                matrix_free_view(prob.op), noisy.f_delta * scale, noisy.delta * scale,
                solver_cfg=cfg,
            )
        errors.append(err.value)
    plain, scaled = errors
    assert plain.iterations == scaled.iterations == 10
    assert scaled.achieved_residual == plain.achieved_residual
    assert np.array_equal(scaled.last_iterate, plain.last_iterate * 2.0**600)
    assert scaled.diagnostics["last_iterate"] is scaled.last_iterate


def test_no_root_below_reports_g_at_zero_in_the_data_units():
    # diag(1, 0.5, 0) leaves f's third entry outside the range: g(0+) = 1.
    decomp = diagonal_decomposition([1.0, 0.5, 0.0])
    for scale in (1.0, 2.0**300, 2.0**-300):
        with pytest.raises(NoRootBelowError) as err:
            solve_alpha(decomp, np.ones(3) * scale, 0.1 * scale)
        assert err.value.g_at_zero == scale * scale
