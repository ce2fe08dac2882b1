"""The gradient kind: n D in O(n), with its closed-form singular system.

The last section runs every catalog problem that takes O(n) memory past
the dense cap.
"""

import tracemalloc

import numpy as np
import pytest

from regkit import (
    MAX_DENSE_DIM,
    DenseOperator,
    GradientOperator,
    SizeLimitError,
    add_noise,
    as_dense_matrix,
    make_problem,
    regularized_solve_auto,
    solution_operator_norm,
    solve_dual,
    solve_primal,
    solve_shifted_normal,
)

from conftest import gradient_callbacks, gradient_singular_values, philox


def _old_matrix(n):
    """The dense matrix gradient_family was built from before it had a kind."""
    mat = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    mat[idx, idx] = -float(n)
    mat[idx, idx + 1] = float(n)
    return mat


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_closed_form_matches_dense_svd(n):
    op = GradientOperator(n)
    matrix = op.matrix
    decomp = op._system
    s = decomp.singular_values
    left, right = decomp.left_vectors, decomp.right_vectors
    oracle = np.linalg.svd(matrix, compute_uv=False)
    assert decomp.rank == n - 1
    assert np.abs(s - oracle).max() <= 1e-13 * oracle[0]
    np.testing.assert_allclose(s, gradient_singular_values(n)[::-1], rtol=1e-15, atol=0)
    assert np.abs(decomp.reconstruct() - matrix).max() <= 1e-13 * s[0]
    assert np.abs(matrix @ right - left * s).max() <= 1e-13 * s[0]
    assert np.abs(left.T @ left - np.eye(n - 1)).max() <= 1e-13
    assert np.abs(right.T @ right - np.eye(n - 1)).max() <= 1e-13
    # The constants are the null space, orthogonal to every right vector.
    assert np.abs(np.ones(n) @ right).max() <= 1e-13 * np.sqrt(n)
    rng = philox(n)
    f, x, c = rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    assert _rel(decomp._left_t(f), left.T @ f) <= 1e-13
    assert _rel(decomp._left(c), left @ c) <= 1e-13
    assert _rel(decomp._right_t(x), right.T @ x) <= 1e-13
    assert _rel(decomp._right(c), right @ c) <= 1e-13


@pytest.mark.parametrize("n", [2, 16, 257])
def test_apply_matches_callbacks_and_pairs(n):
    op, callbacks = GradientOperator(n), gradient_callbacks(n)
    rng = philox(100 + n)
    sigma_1 = gradient_singular_values(n)[-1]
    for _ in range(20):
        x, w = rng.standard_normal(n), rng.standard_normal(n - 1)
        np.testing.assert_array_equal(op.apply(x), callbacks.apply(x))
        np.testing.assert_array_equal(op.apply_adjoint(w), callbacks.apply_adjoint(w))
        scale = np.linalg.norm(x) * np.linalg.norm(w) * sigma_1
        assert abs(op.apply(x) @ w - x @ op.apply_adjoint(w)) <= 1e-13 * scale
        assert np.abs(op.apply(x) - op.matrix @ x).max() <= 1e-13 * sigma_1 * np.abs(x).max()


def test_matrix_is_the_old_dense_matrix_built_once():
    op = GradientOperator(9)
    np.testing.assert_array_equal(op.matrix, _old_matrix(9))
    assert op.matrix is op.matrix
    assert not op.matrix.flags.writeable
    np.testing.assert_array_equal(as_dense_matrix(op), _old_matrix(9))
    assert make_problem("gradient_family", 9).op.kind == "gradient"


def test_dense_reads_above_the_cap_raise_without_allocating():
    n = MAX_DENSE_DIM + 1
    op = GradientOperator(n)
    decomp = op._system
    tracemalloc.start()
    try:
        for read in (
            lambda: op.matrix,
            lambda: as_dense_matrix(op),
            lambda: decomp.left_vectors,
            lambda: decomp.right_vectors,
        ):
            with pytest.raises(SizeLimitError):
                read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [16, 257])
def test_kernels_match_dense_routes(n):
    op = GradientOperator(n)
    dense = DenseOperator(op.matrix)
    rng = philox(200 + n)
    f = rng.standard_normal(n - 1)
    b = rng.standard_normal(n) + 3.0  # with a share in the null space
    for alpha in (1e-6, 1e-3, 1.0, 1e3):
        for route in (solve_primal, solve_dual):
            sol, want = route(op, f, alpha), route(dense, f, alpha)
            assert sol.iterations == 0
            assert _rel(sol.u, want.u) <= 1e-8
        x, iterations = solve_shifted_normal(op, b, alpha)
        assert iterations == 0
        assert _rel(x, solve_shifted_normal(dense, b, alpha)[0]) <= 1e-8


# --- past the dense cap -------------------------------------------------------

_LARGE = 100_000


def _peak_bytes(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["gradient_family", "diagonal", "deriv2"])
def test_o_n_problems_build_past_the_dense_cap(name):
    prob, peak = _peak_bytes(lambda: make_problem(name, _LARGE))
    assert prob.decomp.rank >= _LARGE - 1
    # A dense build would need 8 n^2 bytes, 80 GB here.
    assert peak < 256 * _LARGE


def _check_selection_past_the_dense_cap(name):
    """Selection through ``op`` at O(n) memory, with the paper's certificates."""
    prob = make_problem(name, _LARGE)
    y_norm = np.linalg.norm(prob.y)
    for rel_noise in (1e-1, 1e-3, 1e-5):
        noisy = add_noise(prob, rel_noise * np.linalg.norm(prob.f), 5)
        (solution, selection), peak = _peak_bytes(
            lambda: regularized_solve_auto(prob.op, noisy.f_delta, noisy.delta)
        )
        assert peak < 256 * _LARGE
        target = 1.5 * noisy.delta
        true_residual = np.linalg.norm(prob.op.apply(solution.u) - noisy.f_delta)
        assert abs(true_residual - target) <= 1e-8 * target
        assert solution.solution_norm <= (1 + 1e-10) * y_norm
        bound = 1.0 / (2.0 * np.sqrt(selection.alpha))
        assert solution_operator_norm(prob.op, selection.alpha) <= bound


def test_gradient_selection_past_the_dense_cap():
    _check_selection_past_the_dense_cap("gradient_family")


def test_deriv2_selection_past_the_dense_cap():
    # deriv2's Green's kind takes O(n) memory and has no size cap.
    _check_selection_past_the_dense_cap("deriv2")


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_toeplitz_problems_build_past_the_cap_in_o_n_memory(name):
    # They refused n > MAX_DENSE_DIM; now they hold no matrix and no system there.
    prob, peak = _peak_bytes(lambda: make_problem(name, MAX_DENSE_DIM + 1))
    assert prob.decomp is None
    assert peak < 2**20
