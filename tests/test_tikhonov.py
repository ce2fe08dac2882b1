import numpy as np
import pytest

from regkit import (
    ConvergenceError,
    DenseOperator,
    DiagonalOperator,
    InvalidParameterError,
    IterativeSolverConfig,
    LinearOperator,
    MatrixFreeOperator,
    apriori_alpha_schedule,
    diagonal_decomposition,
    functional_value,
    PROBLEM_NAMES,
    make_problem,
    add_noise,
    discrepancy_value,
    solution_operator_norm,
    solve_dual,
    solve_primal,
    solve_shifted_normal,
    solve_alpha,
    solve_spectral,
    svd_decompose,
)

from conftest import gradient_callbacks, gradient_singular_values, philox, matrix_free_view


def _rel_gap(a, b):
    return np.linalg.norm(a - b) / (np.linalg.norm(b) + 1e-300)


# --- direct examples ----------------------------------------------------------

@pytest.mark.parametrize("solver", [solve_primal, solve_dual])
def test_identity_halves_data(solver):
    sol = solver(DenseOperator(np.eye(2)), [2.0, 0.0], 1.0)
    np.testing.assert_allclose(sol.u, [1.0, 0.0], atol=1e-14)


def _one_of_each_kind():
    dense = DenseOperator(philox(1).standard_normal((4, 3)))
    return dense, DiagonalOperator([2.0, 1.0, 0.0]), matrix_free_view(dense)


@pytest.mark.parametrize("solver", [solve_primal, solve_dual])
def test_zero_data_short_circuit(solver):
    # The Krylov kernels start from f / ||f||, so zero data must never reach them.
    for op in _one_of_each_kind():
        sol = solver(op, np.zeros(op.range_dim), 0.3)
        np.testing.assert_array_equal(sol.u, np.zeros(op.domain_dim))
        assert sol.iterations == 0
        assert sol.residual_norm == 0.0


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["dense", "diagonal", "matrix_free"])
def test_zero_rhs_shifted_normal_short_circuit(kind):
    op = _one_of_each_kind()[kind]
    x, iters = solve_shifted_normal(op, np.zeros(op.domain_dim), 0.3)
    np.testing.assert_array_equal(x, np.zeros(op.domain_dim))
    assert iters == 0


@pytest.mark.parametrize("solver", [solve_primal, solve_dual])
def test_scalar_filter_value(solver):
    # sigma f / (sigma^2 + alpha) = 9/10 for sigma=3, f=3, alpha=1.
    sol = solver(DiagonalOperator([3.0]), [3.0], 1.0)
    np.testing.assert_allclose(sol.u, [0.9], rtol=1e-14)


def test_dual_annihilates_data_outside_range():
    sol = solve_dual(DiagonalOperator([1.0, 0.0]), [0.0, 5.0], 0.3)
    np.testing.assert_array_equal(sol.u, [0.0, 0.0])


def test_shifted_normal_scales_a_diagonal_null_space_by_one_over_alpha():
    # The zero entries are outside the singular system; the kernel adds them.
    values = np.array([2.0, 0.0, 0.5, 0.0])
    b = np.array([1.0, -3.0, 2.0, 4.0])
    x, iters = solve_shifted_normal(DiagonalOperator(values), b, 0.3)
    np.testing.assert_array_equal(x, b / (values**2 + 0.3))
    assert iters == 0


@pytest.mark.parametrize("solver", [solve_primal, solve_dual])
def test_alpha_validation(solver):
    with pytest.raises(InvalidParameterError):
        solver(DenseOperator(np.eye(2)), [1.0, 0.0], 0.0)


def _finite_check_systems():
    # One data vector per route and kind; each gets a non-finite entry.
    dense = DenseOperator(philox(4).standard_normal((5, 3)))
    diag = DiagonalOperator([2.0, 1.0, 0.5])
    cases = []
    for op in (dense, diag, matrix_free_view(dense)):
        cases.append((solve_primal, op, op.range_dim))
        cases.append((solve_dual, op, op.range_dim))
        cases.append((solve_shifted_normal, op, op.domain_dim))
    cases.append((solve_spectral, svd_decompose(dense), dense.range_dim))
    return cases


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_data_rejected(bad):
    for solver, system, dim in _finite_check_systems():
        data = np.ones(dim)
        data[1] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            solver(system, data, 0.1)


def test_solution_fields_recomputed():
    rng = philox(3)
    op = DenseOperator(rng.standard_normal((6, 4)))
    f = rng.standard_normal(6)
    sol = solve_primal(op, f, 0.01)
    sigma1 = np.linalg.svd(op.matrix, compute_uv=False)[0]
    scale = np.linalg.norm(f) + sigma1 * sol.solution_norm
    assert abs(sol.residual_norm - np.linalg.norm(op.apply(sol.u) - f)) <= 1e-12 * scale
    assert sol.solution_norm == np.linalg.norm(sol.u)
    assert sol.path == "primal"
    assert sol.iterations == 0


def test_diagonal_primal_is_direct():
    # Both routes are closed forms on a diagonal operator; a Golub-Kahan
    # primal takes ~40 steps here and lands 5.6e-13 away.
    prob = make_problem("diagonal", 1024)
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), 9)
    spectral = solve_spectral(prob.decomp, noisy.f_delta, 1e-6)
    for solver in (solve_primal, solve_dual):
        sol = solver(prob.op, noisy.f_delta, 1e-6)
        assert sol.iterations == 0
        assert _rel_gap(sol.u, spectral.u) <= 1e-13


# --- spectral path --------------------------------------------------------------

def test_spectral_supremum_coefficient():
    decomp = diagonal_decomposition([1.0])
    sol = solve_spectral(decomp, [1.0], 1.0)
    np.testing.assert_allclose(sol.u, [0.5])
    assert sol.path == "spectral"


def test_spectral_rank_zero_returns_zero():
    decomp = svd_decompose(DenseOperator(np.zeros((3, 2))))
    sol = solve_spectral(decomp, [1.0, -2.0, 0.5], 0.7)
    np.testing.assert_array_equal(sol.u, np.zeros(2))
    assert sol.residual_norm == pytest.approx(np.linalg.norm([1.0, -2.0, 0.5]))


def test_spectral_matches_direct_solve_on_hilbert():
    import scipy.linalg as sla

    matrix = sla.hilbert(4)
    op = DenseOperator(matrix)
    f = matrix @ np.ones(4)
    alpha = 1e-3
    sol = solve_spectral(svd_decompose(op), f, alpha)
    # Independent oracle: dense normal-equations solve.
    oracle = np.linalg.solve(matrix.T @ matrix + alpha * np.eye(4), matrix.T @ f)
    assert _rel_gap(sol.u, oracle) <= 1e-10


def test_spectral_residual_matches_operator_residual():
    rng = philox(17)
    op = DenseOperator(rng.standard_normal((7, 4)))
    f = rng.standard_normal(7)
    sol = solve_spectral(svd_decompose(op), f, 0.05)
    direct = np.linalg.norm(op.apply(sol.u) - f)
    assert abs(sol.residual_norm - direct) <= 1e-12 * np.linalg.norm(f)


# --- three-path agreement ---------------------------------------------------------

def test_three_paths_agree():
    rng = philox(99)
    for _ in range(10):
        m = int(rng.integers(2, 30))
        n = int(rng.integers(2, 20))
        op = DenseOperator(rng.standard_normal((m, n)))
        f = rng.standard_normal(m)
        decomp = svd_decompose(op)
        for alpha in (1e-6, 1e-3, 1.0, 1e3):
            up = solve_primal(op, f, alpha).u
            ud = solve_dual(op, f, alpha).u
            us = solve_spectral(decomp, f, alpha).u
            assert np.linalg.norm(up - ud) <= 1e-8 * (np.linalg.norm(up) + 1e-300)
            assert _rel_gap(up, us) <= 1e-8
            assert _rel_gap(ud, us) <= 1e-8


# --- Golub-Kahan path ---------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1e-2, 1.0])
def test_cg_matches_direct(alpha):
    prob = make_problem("deriv2", 24)
    free = matrix_free_view(prob.op)
    noisy = add_noise(prob, 1e-3, 5)
    for solver in (solve_primal, solve_dual):
        direct = solver(prob.op, noisy.f_delta, alpha)
        iterative = solver(free, noisy.f_delta, alpha)
        assert iterative.iterations > 0
        assert direct.iterations == 0
        assert _rel_gap(iterative.u, direct.u) <= 1e-10


def test_cg_respects_budget():
    prob = make_problem("deriv2", 24)
    free = matrix_free_view(prob.op)
    cfg = IterativeSolverConfig(rel_tolerance=1e-12, max_iterations=2)
    with pytest.raises(ConvergenceError) as err:
        solve_primal(free, prob.f, 1e-8, cfg)
    assert err.value.achieved_residual > 0


def test_budget_error_carries_certificate_and_iterate():
    prob = make_problem("deriv2", 24)
    cfg = IterativeSolverConfig(rel_tolerance=1e-12, max_iterations=2)
    with pytest.raises(ConvergenceError) as err:
        solve_dual(matrix_free_view(prob.op), prob.f, 1e-8, cfg)
    assert err.value.iterations == 2
    assert err.value.achieved_residual > cfg.rel_tolerance
    assert err.value.last_iterate.shape == (prob.op.domain_dim,)


def test_cg_contract_on_shifted_normal_residual():
    prob = make_problem("phillips", 32)
    free = matrix_free_view(prob.op)
    cfg = IterativeSolverConfig(rel_tolerance=1e-12)
    b = free.apply_adjoint(prob.f)
    x, iters = solve_shifted_normal(free, b, 1e-4, cfg)
    residual = np.linalg.norm(free.apply_shifted_normal(1e-4, x) - b)
    assert residual <= 1.02 * 1e-12 * np.linalg.norm(b)
    assert iters > 0


def test_solver_config_validation():
    with pytest.raises(InvalidParameterError):
        IterativeSolverConfig(rel_tolerance=1.5)
    with pytest.raises(InvalidParameterError):
        IterativeSolverConfig(max_iterations=0)
    assert IterativeSolverConfig().budget(32) == 320
    assert IterativeSolverConfig(max_iterations=5).budget(32) == 5


# A string leaked TypeError from the comparison.
@pytest.mark.parametrize("bad", ["x", None, [1e-6]], ids=["string", "none", "list"])
def test_solver_config_refuses_a_tolerance_that_is_not_a_number(bad):
    with pytest.raises(InvalidParameterError, match="rel_tolerance"):
        IterativeSolverConfig(rel_tolerance=bad)


# nan leaked a ValueError from int(); 2.5 was accepted and budgeted 2 steps.
@pytest.mark.parametrize("count", [float("nan"), float("inf"), 2.5, "100", 0])
def test_solver_config_refuses_a_non_integral_budget(count):
    with pytest.raises(InvalidParameterError, match="max_iterations"):
        IterativeSolverConfig(max_iterations=count)


def test_solver_config_takes_an_integral_budget():
    budget = IterativeSolverConfig(max_iterations=5.0).budget(32)
    assert budget == 5 and type(budget) is int


# --- functional and its minimizer ---------------------------------------------------

def test_functional_zero_vector():
    op = DenseOperator(np.eye(2))
    f = np.array([3.0, 4.0])
    assert functional_value(op, [0.0, 0.0], f, 0.7) == pytest.approx(25.0)


def test_functional_identity_at_data():
    op = DenseOperator(np.eye(2))
    f = np.array([3.0, 4.0])
    assert functional_value(op, f, f, 1.0) == pytest.approx(25.0)


def test_functional_scalar_arithmetic():
    op = DiagonalOperator([3.0])
    assert functional_value(op, [0.9], [3.0], 1.0) == pytest.approx(0.90)


def test_perturbations_never_decrease_functional():
    # F(u+h) - F(u) == ||Ah||^2 + alpha ||h||^2 at the minimizer.
    rng = philox(23)
    cases = [
        ("diagonal", 8, 1e-2),
        ("hilbert", 6, 1e-4),
        ("deriv2", 16, 1e-3),
    ]
    for name, n, alpha in cases:
        prob = make_problem(name, n)
        fd = add_noise(prob, 1e-2, 1).f_delta
        sol = solve_primal(prob.op, fd, alpha)
        base = functional_value(prob.op, sol.u, fd, alpha)
        for _ in range(100):
            h = rng.standard_normal(prob.op.domain_dim)
            h *= rng.choice([1e-3, 1.0, 10.0]) * sol.solution_norm / np.linalg.norm(h)
            lhs = functional_value(prob.op, sol.u + h, fd, alpha) - base
            rhs = np.linalg.norm(prob.op.apply(h)) ** 2 + alpha * np.linalg.norm(h) ** 2
            assert abs(lhs - rhs) <= 1e-9 * base
            assert lhs >= -1e-9 * base


def test_minimizer_norm_bound():
    # ||u_alpha|| <= ||f|| / (2 sqrt(alpha)) for every operator and alpha.
    rng = philox(29)
    for _ in range(20):
        m, n = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        op = DenseOperator(rng.standard_normal((m, n)))
        f = rng.standard_normal(m)
        for alpha in (1e-6, 1e-2, 1.0, 1e4):
            sol = solve_dual(op, f, alpha)
            bound = np.linalg.norm(f) / (2.0 * np.sqrt(alpha))
            assert sol.solution_norm <= bound * (1 + 1e-12)


def test_error_identity_with_exact_data():
    # u_alpha - y == -alpha (A^T A + alpha I)^{-1} y when f = A y.
    for name, n in [("diagonal", 8), ("hilbert", 6), ("deriv2", 16)]:
        prob = make_problem(name, n)
        for alpha in (1e-4, 1e-2, 1.0):
            sol = solve_primal(prob.op, prob.f, alpha)
            w, _ = solve_shifted_normal(prob.op, prob.y, alpha)
            defect = np.linalg.norm(sol.u - prob.y + alpha * w)
            assert defect <= 1e-10 * np.linalg.norm(prob.y)


def test_exact_data_error_vanishes_as_alpha_shrinks():
    prob = make_problem("diagonal", 8)
    errors = []
    for k in range(0, 13):
        sol = solve_spectral(prob.decomp, prob.f, 10.0 ** (-k))
        errors.append(np.linalg.norm(sol.u - prob.y))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-6 * np.linalg.norm(prob.y)


# --- a-priori schedule -----------------------------------------------------------

def test_apriori_schedule_values():
    assert apriori_alpha_schedule(1e-2) == 1e-2
    assert apriori_alpha_schedule(1.0) == 1.0
    alpha = apriori_alpha_schedule(1e-8)
    assert alpha == 1e-8
    assert 1e-8 / (2.0 * np.sqrt(alpha)) == pytest.approx(5e-5)


def test_apriori_schedule_validation():
    with pytest.raises(InvalidParameterError):
        apriori_alpha_schedule(0.0)
    # None leaked TypeError from float().
    with pytest.raises(InvalidParameterError, match="delta"):
        apriori_alpha_schedule(None)


# --- solution-map norm -------------------------------------------------------------

def test_solution_map_norm_identity_with_power_iteration():
    # max sigma/(sigma^2+alpha) from the singular values must match power
    # iteration on the composed map (run matrix-free, damped LSQR inner solves).
    rng = philox(41)
    op = DenseOperator(rng.standard_normal((9, 6)))
    alpha = 0.7
    from_svd = solution_operator_norm(svd_decompose(op), alpha)
    from_power = solution_operator_norm(
        matrix_free_view(op), alpha, tol=1e-11, max_iters=50000
    )
    assert abs(from_power - from_svd) <= 1e-8 * from_svd


class _BareOperator(LinearOperator):
    """apply/apply_adjoint only, so every route runs the base-class kernels."""

    def __init__(self, matrix):
        super().__init__(*matrix.shape)
        self._m = matrix

    def apply(self, x):
        return self._m @ x

    def apply_adjoint(self, w):
        return self._m.T @ w


@pytest.mark.parametrize("shape", [(9, 5), (4, 7)])
def test_bare_subclass_matches_dense_routes(shape):
    matrix = philox(43).standard_normal(shape)
    bare, dense = _BareOperator(matrix), DenseOperator(matrix)
    rng = philox(44)
    f, b = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    decomp = svd_decompose(dense)
    for alpha in (1e-2, 0.7):
        for solver in (solve_primal, solve_dual):
            got, want = solver(bare, f, alpha), solver(dense, f, alpha)
            assert got.iterations > 0
            assert _rel_gap(got.u, want.u) <= 1e-8
        x, _ = solve_shifted_normal(bare, b, alpha)
        assert _rel_gap(x, solve_shifted_normal(dense, b, alpha)[0]) <= 1e-8
        from_svd = solution_operator_norm(decomp, alpha)
        from_power = solution_operator_norm(bare, alpha, tol=1e-11, max_iters=50000)
        assert abs(from_power - from_svd) <= 1e-8 * from_svd


def test_non_finite_callback_output_rejected_in_primal():
    # Faulty adjoint callback output must fail typed, not exhaust the Krylov budget.
    op = MatrixFreeOperator(3, 3, lambda x: x.copy(), lambda w: np.full(3, np.nan))
    with pytest.raises(InvalidParameterError, match="finite"):
        solve_primal(op, np.ones(3), 0.1)


def test_solution_map_norm_identity_attains_bound_at_unit_alpha():
    # All sigma = 1 = sqrt(alpha): measured = 0.5 = the ceiling itself.
    decomp = svd_decompose(DenseOperator(np.eye(3)))
    assert solution_operator_norm(decomp, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_solution_map_norm_sharp_on_diagonal():
    for alpha in (1e-4, 1e-2, 1.0):
        decomp = diagonal_decomposition([np.sqrt(alpha), 1.0, 3.0])
        bound = 1.0 / (2.0 * np.sqrt(alpha))
        measured = solution_operator_norm(decomp, alpha)
        assert measured == pytest.approx(bound, rel=1e-12)
        assert measured <= bound * (1 + 1e-12)


def test_solution_map_norm_huge_alpha_is_finite():
    sol = solve_primal(DenseOperator(np.eye(2)), [1.0, 1.0], 1e14)
    assert sol.solution_norm <= 1.0 / (2 * np.sqrt(1e14)) * np.sqrt(2) * (1 + 1e-12)
    tiny = solve_primal(DenseOperator(np.eye(2)), [1.0, 1.0], 1e-14)
    np.testing.assert_allclose(tiny.u, [1.0, 1.0], rtol=1e-9)


# --- inputs that stalled conjugate gradients ----------------------------------------

def _stalling_inputs():
    # Drawn so that conjugate gradients on the normal equations at alpha = 1e-6
    # plateaued near 1e-10 relative, above their 1e-12 target, on both shapes.
    rng = philox(3)
    tall, wide = rng.standard_normal((9, 5)), rng.standard_normal((4, 7))
    return tall, wide, rng.standard_normal(9), rng.standard_normal(7)


@pytest.mark.parametrize("route", ["dual", "shifted_normal", "operator_norm"])
def test_small_alpha_krylov_routes_match_dense(route):
    tall, wide, f, b = _stalling_inputs()
    tall, wide = DenseOperator(tall), DenseOperator(wide)
    run = {
        "dual": lambda op: solve_dual(op, f, 1e-6).u,
        "shifted_normal": lambda op: solve_shifted_normal(op, b, 1e-6)[0],
        "operator_norm": lambda op: solution_operator_norm(op, 1e-6),
    }[route]
    op = tall if route == "dual" else wide
    want = run(op)
    assert _rel_gap(run(matrix_free_view(op)), want) <= 1e-8


@pytest.mark.parametrize("alpha", [1e-6, 1e-8, 1e-10])
def test_krylov_dual_does_not_cancel_data_outside_the_range(alpha):
    # 94% of f lies outside the range of the tall matrix, so the Galerkin w of
    # (A A^T + alpha I) w = f holds ~||f|| / alpha there; a readout that formed
    # w and applied A^T to it lost 1.7e-7 at alpha = 1e-8.
    tall, _, f, _ = _stalling_inputs()
    dense = DenseOperator(tall)
    got = solve_dual(matrix_free_view(dense), f, alpha).u
    assert _rel_gap(got, solve_dual(dense, f, alpha).u) <= 1e-8


# --- matrix-free fixed-alpha routes against closed forms ---------------------------

def _at_discrepancy_alpha(prob, rel_noise, seed):
    """Noisy data, the discrepancy alpha, and the spectral solution there."""
    delta = rel_noise * float(np.linalg.norm(prob.f))
    fd = add_noise(prob, delta, seed).f_delta
    alpha = solve_alpha(prob.decomp, fd, delta).alpha
    return fd, alpha, solve_spectral(prob.decomp, fd, alpha)


_NOISE_LEVELS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_matrix_free_routes_match_spectral_at_discrepancy_alpha(name, n):
    prob = make_problem(name, n)
    free = matrix_free_view(prob.op)
    for rel_noise in _NOISE_LEVELS:
        fd, alpha, want = _at_discrepancy_alpha(prob, rel_noise, 3)
        for solver in (solve_primal, solve_dual):
            assert _rel_gap(solver(free, fd, alpha).u, want.u) <= 1e-8
        g = discrepancy_value(free, fd, alpha)
        assert g == pytest.approx(want.residual_norm**2, rel=1e-8, abs=0.0)


def test_gradient_callbacks_dual_matches_spectral():
    n = 512
    prob = make_problem("gradient_family", n)
    for rel_noise in _NOISE_LEVELS:
        fd, alpha, want = _at_discrepancy_alpha(prob, rel_noise, 3)
        assert _rel_gap(solve_dual(gradient_callbacks(n), fd, alpha).u, want.u) <= 1e-8


@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0])
def test_gradient_callbacks_solution_map_norm_matches_closed_form(alpha):
    n = 64
    s = gradient_singular_values(n)
    want = float(np.max(s / (s**2 + alpha)))
    assert solution_operator_norm(gradient_callbacks(n), alpha) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("symmetric", [True, False])
def test_solution_map_norm_of_dense_operator_matches_decomposition(symmetric):
    # An operator and its decomposition must give one norm, whichever
    # factorization (eigh or SVD) the matrix takes.
    rng = philox(45)
    if symmetric:
        q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        eigenvalues = np.geomspace(1.0, 1e-9, 12) * (-1.0) ** np.arange(12)
        matrix = (q * eigenvalues) @ q.T
        matrix = 0.5 * (matrix + matrix.T)  # exactly symmetric
    else:
        matrix = rng.standard_normal((12, 8))
    op = DenseOperator(matrix)
    decomp = svd_decompose(op)
    for alpha in (1e-12, 1e-8, 1e-5, 1e-2, 1.0):
        want = solution_operator_norm(decomp, alpha)
        assert solution_operator_norm(op, alpha) == pytest.approx(want, rel=1e-12)


def test_solution_map_norm_of_dense_operator_keeps_tiny_singular_values():
    # sigma_2 = 1e-13 = sqrt(alpha) attains the bound 1 / (2 sqrt(alpha)); the
    # direct kernels do not truncate it, so the norm may not either.
    alpha = 1e-26
    want = solution_operator_norm(DiagonalOperator([1.0, 1e-13]), alpha)
    assert want == pytest.approx(5e12, rel=1e-12)
    dense = DenseOperator(np.diag([1.0, 1e-13]))
    assert solution_operator_norm(dense, alpha) == pytest.approx(want, rel=1e-12)
    e2 = np.array([0.0, 1.0])
    assert solve_primal(dense, e2, alpha).solution_norm == pytest.approx(want, rel=1e-6)


def test_solution_map_norm_of_dense_operator_above_size_cap():
    # Too tall to factor densely; the shifted-normal power iteration still
    # gives sigma / (sigma^2 + 1) with sigma = sqrt(4097), as solve_alpha
    # still selects on it.
    op = DenseOperator(np.ones((4097, 1)))
    want = np.sqrt(4097.0) / 4098.0
    assert solution_operator_norm(op, 1.0) == pytest.approx(want, rel=1e-8)
