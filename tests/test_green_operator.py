"""The Green's kind: deriv2's K = (-d^2/dt^2)^{-1} through its closed-form DST-II system."""

import tracemalloc

import numpy as np
import pytest

from regkit import (
    DEFAULT_RANK_TOLERANCE,
    MAX_DENSE_DIM,
    DenseOperator,
    GreenOperator,
    SizeLimitError,
    SpectralDecomposition,
    add_noise,
    as_dense_matrix,
    make_problem,
    regularized_solve_auto,
    solve_dual,
    solve_primal,
    solve_shifted_normal,
)

from conftest import philox


def _old_matrix(n):
    """The dense matrix deriv2 was built from before it had a kind."""
    h = (1.0 - 0.0) / n
    t = 0.0 + (np.arange(1, n + 1) - 0.5) * h
    s_col, t_row = np.meshgrid(t, t, indexing="ij")
    kernel = np.where(s_col <= t_row, s_col * (t_row - 1.0), t_row * (s_col - 1.0))
    return h * kernel


def _closed_form_singular_values(n):
    """sigma_k = 1 / (4 n^2 sin^2(pi k / 2n)), k = 1..n."""
    return 1.0 / (4.0 * n * n * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * n)) ** 2)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_closed_form_matches_dense_factorizations(n):
    op = GreenOperator(n)
    matrix = op.matrix
    decomp = op._system
    s = decomp.singular_values
    left, right = decomp.left_vectors, decomp.right_vectors
    assert decomp.rank == n
    oracle = np.linalg.svd(matrix, compute_uv=False)
    assert np.abs(s - oracle).max() <= 1e-13 * oracle[0]
    # Negative definite: the eigenvalues are -sigma, in the same order.
    assert np.abs(np.linalg.eigvalsh(matrix) + s).max() <= 1e-13 * s[0]
    np.testing.assert_allclose(s, _closed_form_singular_values(n), rtol=1e-15, atol=0)
    assert np.all(np.diff(s) < 0)
    assert np.abs(decomp.reconstruct() - matrix).max() <= 1e-13 * s[0]
    assert np.abs(right.T @ right - np.eye(n)).max() <= 1e-13
    np.testing.assert_array_equal(left, -right)
    rng = philox(300 + n)
    f, x, c = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
    assert _rel(decomp._left_t(f), left.T @ f) <= 1e-13
    assert _rel(decomp._left(c), left @ c) <= 1e-13
    assert _rel(decomp._right_t(x), right.T @ x) <= 1e-13
    assert _rel(decomp._right(c), right @ c) <= 1e-13


@pytest.mark.parametrize("n", [8, 128, 256, 1024])
def test_matrix_is_the_old_dense_matrix_built_once(n):
    op = GreenOperator(n)
    np.testing.assert_array_equal(op.matrix, _old_matrix(n))
    assert op.matrix is op.matrix
    assert not op.matrix.flags.writeable
    np.testing.assert_array_equal(as_dense_matrix(op), _old_matrix(n))


def test_deriv2_is_the_green_kind():
    prob = make_problem("deriv2", 9)
    assert prob.op.kind == "green"
    t = (np.arange(1, 10) - 0.5) * (1.0 / 9)
    np.testing.assert_array_equal(prob.y, t * (1.0 - t))


@pytest.mark.parametrize("n", [2, 16, 257, 1024])
def test_apply_matches_the_matrix(n):
    op = GreenOperator(n)
    rng = philox(400 + n)
    for _ in range(10):
        x = rng.standard_normal(n)
        out = op.apply(x)
        assert _rel(out, op.matrix @ x) <= 1e-14
        # K is symmetric: the adjoint is the same map, to the bit.
        np.testing.assert_array_equal(op.apply_adjoint(x), out)


def test_dense_reads_above_the_cap_raise_without_allocating():
    n = MAX_DENSE_DIM + 1
    op = GreenOperator(n)
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
    op = GreenOperator(n)
    dense = DenseOperator(op.matrix)
    rng = philox(500 + n)
    f, b = rng.standard_normal(n), rng.standard_normal(n)
    for alpha in (1e-10, 1e-6, 1e-3, 1.0):
        for route in (solve_primal, solve_dual):
            sol, want = route(op, f, alpha), route(dense, f, alpha)
            assert sol.iterations == 0
            assert _rel(sol.u, want.u) <= 1e-8
        x, iterations = solve_shifted_normal(op, b, alpha)
        assert iterations == 0
        assert _rel(x, solve_shifted_normal(dense, b, alpha)[0]) <= 1e-8


def _eigh_decomposition(matrix):
    """The singular system of a symmetric matrix from one ``np.linalg.eigh`` of all of it."""
    lam, q = np.linalg.eigh(matrix)
    order = np.argsort(-np.abs(lam), kind="stable")
    s = np.abs(lam[order])
    kept = order[s > DEFAULT_RANK_TOLERANCE * s[0]]
    return SpectralDecomposition(
        singular_values=np.abs(lam[kept]),
        left_vectors=q[:, kept] * np.where(lam[kept] < 0, -1.0, 1.0),
        right_vectors=q[:, kept],
        rank_tolerance=DEFAULT_RANK_TOLERANCE,
    )


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_selection_matches_the_eigh_route(n):
    prob = make_problem("deriv2", n)
    matrix = prob.op.matrix
    eigh = _eigh_decomposition(matrix)
    norm_f = np.linalg.norm(prob.f)
    for e in range(1, 10):
        noisy = add_noise(prob, 10.0**-e * norm_f, 17)
        target = 1.5 * noisy.delta
        (sol, sel), (ref, ref_sel) = (
            regularized_solve_auto(system, noisy.f_delta, noisy.delta)
            for system in (prob.decomp, eigh)
        )
        assert _rel(sol.u, ref.u) <= 1e-10
        # At noise 1e-9 of ||f|| the residual of the rounded matrix pins
        # alpha only to ~1e-7: there the eigh route's own true residual
        # misses C delta by up to 5e-7 relative (long double, seeds 1-10).
        assert abs(sel.alpha - ref_sel.alpha) <= (1e-8 if e <= 8 else 1e-7) * ref_sel.alpha
        miss, ref_miss = (
            abs(np.linalg.norm(matrix @ u - noisy.f_delta) - target) for u in (sol.u, ref.u)
        )
        assert miss <= max(ref_miss, 1e-12 * target)
