import tracemalloc

import numpy as np
import pytest

from regkit import (
    ConvergenceError,
    DenseOperator,
    DiagonalOperator,
    DimensionMismatchError,
    GradientOperator,
    GreenOperator,
    InvalidParameterError,
    MAX_DENSE_DIM,
    MatrixFreeOperator,
    NotInRangeError,
    SizeLimitError,
    ToeplitzOperator,
    UnsupportedKindError,
    as_dense_matrix,
    diagonal_decomposition,
    filter_factors,
    make_problem,
    minimal_norm_solution,
    null_space_residual,
    operator_norm_estimate,
    read_dense_text,
    solution_operator_norm,
    solve_primal,
    solve_spectral,
    svd_decompose,
    write_dense_text,
)

from conftest import catalog_operator, philox, matrix_free_view


# --- apply / apply_adjoint -------------------------------------------------

def test_apply_identity():
    op = DenseOperator(np.eye(3))
    np.testing.assert_array_equal(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_diagonal():
    op = DiagonalOperator([2.0, 0.5])
    np.testing.assert_array_equal(op.apply([1.0, 4.0]), [2.0, 2.0])


def test_apply_dense_shear():
    op = DenseOperator([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(op.apply([1.0, 1.0]), [2.0, 1.0])


def test_adjoint_identity():
    op = DenseOperator(np.eye(3))
    np.testing.assert_array_equal(op.apply_adjoint([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_adjoint_dense_shear():
    op = DenseOperator([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(op.apply_adjoint([1.0, 0.0]), [1.0, 1.0])


def test_adjoint_diagonal():
    op = DiagonalOperator([2.0, 0.5])
    np.testing.assert_array_equal(op.apply_adjoint([2.0, 2.0]), [4.0, 1.0])


def test_apply_rejects_wrong_length():
    op = DenseOperator([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        op.apply([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        op.apply_adjoint([1.0])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_dense_operator_rejects_non_finite_entries(bad):
    with pytest.raises(InvalidParameterError):
        DenseOperator([[1.0, bad], [0.0, 1.0]])


def test_matrix_free_checks_callback_output():
    bad = MatrixFreeOperator(2, 2, lambda x: x[:1], lambda w: w)
    with pytest.raises(DimensionMismatchError):
        bad.apply([1.0, 2.0])


def _complex_forward():
    MatrixFreeOperator(2, 2, lambda x: x + 1j * x, lambda w: w).apply([1.0, 2.0])


def _complex_adjoint():
    MatrixFreeOperator(2, 2, lambda x: x, lambda w: w * (1 + 0j)).apply_adjoint([1.0, 2.0])


@pytest.mark.parametrize(
    "call, label",
    [
        (lambda: DenseOperator(np.array([[1 + 1j, 0], [0, 1]])), "dense operator matrix"),
        (lambda: DiagonalOperator([1 + 1j, 2]), "diagonal entries"),
        (
            lambda: solve_primal(
                DenseOperator(np.diag([3.0, 2.0, 1.0])), np.array([1 + 1j, 1, 1]), 1e-2
            ),
            "f",
        ),
        (_complex_forward, "forward callback output"),
        (_complex_adjoint, "adjoint callback output"),
    ],
    ids=["dense", "diagonal", "data", "forward", "adjoint"],
)
def test_complex_input_is_refused_not_truncated(call, label):
    # A cast to float would keep the real part alone; a zero imaginary
    # part is refused too, by dtype.
    with pytest.raises(InvalidParameterError, match=f"^{label} must be real"):
        call()


def test_adjoint_pairing(zoo):
    # <Ax, w> == <x, A^T w> sampled over random pairs, scaled by sigma_1.
    rng = philox(202)
    for name, op in zoo:
        sigma1 = operator_norm_estimate(op, tol=1e-12, max_iters=10000)
        for _ in range(100):
            x = rng.standard_normal(op.domain_dim)
            w = rng.standard_normal(op.range_dim)
            lhs = float(op.apply(x) @ w)
            rhs = float(x @ op.apply_adjoint(w))
            limit = 1e-12 * np.linalg.norm(x) * np.linalg.norm(w) * max(sigma1, 1.0)
            assert abs(lhs - rhs) <= limit, name


# --- shifted normal operator ------------------------------------------------

def test_shifted_normal_identity():
    op = DenseOperator(np.eye(2))
    np.testing.assert_allclose(op.apply_shifted_normal(1.0, [1.0, 0.0]), [2.0, 0.0])


def test_shifted_normal_diagonal_scalar():
    op = DiagonalOperator([2.0])
    np.testing.assert_allclose(op.apply_shifted_normal(1.0, [1.0]), [5.0])


def test_shifted_normal_dense():
    op = DenseOperator([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(
        op.apply_shifted_normal(0.5, [1.0, 0.0]), [1.5, 1.0]
    )


def test_shifted_normal_matches_matrix_free(zoo):
    rng = philox(7)
    for name, op in zoo:
        x = rng.standard_normal(op.domain_dim)
        direct = op.apply_adjoint(op.apply(x)) + 0.25 * x
        np.testing.assert_allclose(
            op.apply_shifted_normal(0.25, x), direct, rtol=0, atol=1e-14,
            err_msg=name,
        )


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
def test_shifted_normal_rejects_bad_alpha(alpha):
    op = DenseOperator(np.eye(2))
    with pytest.raises(InvalidParameterError):
        op.apply_shifted_normal(alpha, [1.0, 0.0])


# --- operator norm estimate --------------------------------------------------

def test_norm_estimate_diagonal():
    op = DiagonalOperator([3.0, 1.0, 0.1])
    assert operator_norm_estimate(op, tol=1e-12) == pytest.approx(3.0, rel=1e-10)


def test_norm_estimate_identity():
    op = DenseOperator(np.eye(6))
    assert operator_norm_estimate(op) == pytest.approx(1.0, rel=1e-12)


def test_norm_estimate_nilpotent():
    # Jordan block: singular values are 1 and 0.
    op = DenseOperator([[0.0, 1.0], [0.0, 0.0]])
    assert operator_norm_estimate(op, tol=1e-12) == pytest.approx(1.0, rel=1e-10)


def test_norm_estimate_zero_operator():
    op = DenseOperator(np.zeros((3, 3)))
    assert operator_norm_estimate(op) == 0.0


def test_norm_estimate_deterministic():
    op = DenseOperator(philox(5).standard_normal((8, 6)))
    first = operator_norm_estimate(op, tol=1e-11)
    second = operator_norm_estimate(op, tol=1e-11)
    assert first == second


def test_norm_estimate_budget_error():
    # Slow spectral gap: successive estimates still drift after 3 steps.
    op = DiagonalOperator([1.0, 0.999])
    with pytest.raises(ConvergenceError) as err:
        operator_norm_estimate(op, tol=1e-15, max_iters=3)
    assert err.value.last_estimate > 0.9
    assert err.value.iterations == 3


def test_norm_estimate_validation():
    op = DenseOperator(np.eye(2))
    with pytest.raises(InvalidParameterError):
        operator_norm_estimate(op, tol=0.0)
    with pytest.raises(InvalidParameterError):
        operator_norm_estimate(op, max_iters=0)


# ||A||^2 overflowed or underflowed in the norm of A^T A v: diag(2s, s)
# read 0.0 at s = 1e100 and 0.975 * 2s at s = 1e-100.
@pytest.mark.parametrize("k", [300, 500, -300, -500])
@pytest.mark.parametrize("view", [lambda op: op, matrix_free_view], ids=["diagonal", "matrix_free"])
def test_norm_estimate_is_invariant_to_the_scale_of_the_operator(view, k):
    s = 2.0**k
    plain = operator_norm_estimate(view(DiagonalOperator([2.0, 1.0])))
    assert operator_norm_estimate(view(DiagonalOperator([2.0 * s, s]))) == plain * s


# Each is refused before the first matvec.  nan ran the whole budget into a
# ConvergenceError, inf stopped after one step (2.907 for a norm of 3), and
# int(nan) leaked a ValueError.
@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"max_iters": float("nan")}, "max_iters"),
        ({"max_iters": float("inf")}, "max_iters"),
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": "100"}, "max_iters"),
    ],
    ids=["tol-nan", "tol-inf", "iters-nan", "iters-inf", "iters-fraction", "iters-str"],
)
def test_norm_estimate_refuses_bad_stopping_rules(kwargs, name):
    calls = []
    op = MatrixFreeOperator(
        3, 3,
        lambda x: calls.append(x) or np.array([3.0, 2.0, 1.0]) * x,
        lambda w: np.array([3.0, 2.0, 1.0]) * w,
    )
    with pytest.raises(InvalidParameterError, match=name):
        operator_norm_estimate(op, **kwargs)
    assert not calls


def test_norm_estimate_takes_integral_budgets():
    op = DiagonalOperator([3.0, 2.0, 1.0])
    assert operator_norm_estimate(op, max_iters=5000.0) == operator_norm_estimate(op)


def test_solution_map_norm_refuses_an_infinite_tolerance():
    # tol=inf returned 0.380; the norm, max sigma / (sigma^2 + alpha) over
    # sigma in (3, 2, 1) at alpha = 1e-2, is 1 / 1.01 = 0.990.
    op = matrix_free_view(DiagonalOperator([3.0, 2.0, 1.0]))
    with pytest.raises(InvalidParameterError, match="tol"):
        solution_operator_norm(op, 1e-2, tol=float("inf"))
    assert solution_operator_norm(op, 1e-2) == pytest.approx(1.0 / 1.01, rel=1e-9)


# --- singular-value machinery -------------------------------------------------

def test_svd_diagonal_with_null_direction():
    decomp = svd_decompose(DenseOperator(np.diag([2.0, 1.0, 0.0])))
    np.testing.assert_allclose(decomp.singular_values, [2.0, 1.0])
    assert decomp.rank == 2
    # Null space is the third coordinate axis.
    e3 = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(decomp.project_domain_complement(e3), e3, atol=1e-14)


def test_svd_identity():
    decomp = svd_decompose(DenseOperator(np.eye(4)))
    np.testing.assert_allclose(decomp.singular_values, np.ones(4))


def test_svd_hilbert4():
    import scipy.linalg as sla

    decomp = svd_decompose(DenseOperator(sla.hilbert(4)))
    # Extreme singular values cross-checked against a dense SVD oracle.
    assert decomp.singular_values[0] == pytest.approx(1.5002142800592431, rel=1e-12)
    assert decomp.singular_values[-1] == pytest.approx(9.6702304022605143e-05, rel=1e-9)


def test_svd_invariants(zoo):
    for name, op in zoo:
        if op.kind != "dense":
            continue
        decomp = svd_decompose(op)
        dense = as_dense_matrix(op)
        err = np.linalg.norm(decomp.reconstruct() - dense) / np.linalg.norm(dense)
        assert err <= 1e-12, name
        r = decomp.rank
        gram_left = decomp.left_vectors.T @ decomp.left_vectors
        gram_right = decomp.right_vectors.T @ decomp.right_vectors
        assert np.abs(gram_left - np.eye(r)).max() <= 1e-12, name
        assert np.abs(gram_right - np.eye(r)).max() <= 1e-12, name
        s = decomp.singular_values
        assert np.all(np.diff(s) <= 0), name
        if r:
            assert np.all(s > decomp.rank_tolerance * s[0]), name


def test_svd_truncates_tiny_values():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 1e-15])))
    assert decomp.rank == 1


def test_svd_rank_tolerance_zero_keeps_positive():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 1e-15])), rank_tolerance=0.0)
    assert decomp.rank == 2


def test_svd_zero_matrix_has_rank_zero():
    decomp = svd_decompose(DenseOperator(np.zeros((3, 2))))
    assert decomp.rank == 0
    np.testing.assert_allclose(decomp.reconstruct(), np.zeros((3, 2)))


def test_svd_rejects_non_dense():
    with pytest.raises(UnsupportedKindError):
        svd_decompose(DiagonalOperator([1.0, 2.0]))
    with pytest.raises(UnsupportedKindError):
        svd_decompose(matrix_free_view(DenseOperator(np.eye(2))))


def test_svd_size_cap():
    op = DenseOperator(np.zeros((4097, 1)))
    with pytest.raises(SizeLimitError):
        svd_decompose(op)


def test_diagonal_dense_reads_above_the_cap_raise_without_allocating(tmp_path):
    values = np.ones(MAX_DENSE_DIM + 1)
    op = DiagonalOperator(values)
    decomp = diagonal_decomposition(values)
    tracemalloc.start()
    try:
        for read in (
            lambda: decomp.left_vectors,
            lambda: decomp.right_vectors,
            decomp.reconstruct,
            lambda: as_dense_matrix(op),
            lambda: write_dense_text(op, tmp_path / "a.txt"),
        ):
            with pytest.raises(SizeLimitError):
                read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not (tmp_path / "a.txt").exists()


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "decompose",
    [
        lambda tol: svd_decompose(DenseOperator(np.diag([1.0, 0.0, 2.0])), tol),
        lambda tol: diagonal_decomposition([1.0, 0.0, 2.0], tol),
    ],
    ids=["svd_decompose", "diagonal_decomposition"],
)
def test_rank_tolerance_must_be_finite_and_nonnegative(decompose, bad):
    # A negative tolerance kept the zero singular value, so the minimal-norm
    # solution divided by it; a NaN one silently truncated to rank 0.
    with pytest.raises(InvalidParameterError, match="rank_tolerance"):
        decompose(bad)


def test_diagonal_decomposition_sorts_and_truncates():
    decomp = diagonal_decomposition([0.5, 3.0, 0.0, 1.0])
    np.testing.assert_allclose(decomp.singular_values, [3.0, 1.0, 0.5])
    np.testing.assert_allclose(
        decomp.reconstruct(), np.diag([0.5, 3.0, 0.0, 1.0]), atol=1e-15
    )


# --- filter factors -----------------------------------------------------------

@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_diagonal_decomposition_rejects_non_finite(bad):
    with pytest.raises(InvalidParameterError):
        diagonal_decomposition([1.0, bad, 0.5])


def test_filter_attains_supremum_at_unit():
    phi = filter_factors(np.array([1.0]), 1.0)
    assert phi[0] == 0.5 == 1.0 / (2.0 * np.sqrt(1.0))


def test_filter_null_direction():
    np.testing.assert_array_equal(filter_factors(np.array([0.0]), 0.3), [0.0])


def test_filter_attainment_case():
    phi = filter_factors(np.array([2.0]), 4.0)
    assert phi[0] == pytest.approx(0.25, rel=1e-15)
    assert phi[0] == pytest.approx(1.0 / (2.0 * np.sqrt(4.0)), rel=1e-15)


def test_filter_uniform_bound_grid():
    alphas = np.logspace(-8, 2, 11)
    sigmas = np.concatenate([[0.0], np.logspace(-8, 6, 57)])
    for alpha in alphas:
        bound = 1.0 / (2.0 * np.sqrt(alpha))
        phi = filter_factors(sigmas, alpha)
        assert np.all(phi <= bound * (1 + 1e-15))
        peak = filter_factors(np.array([np.sqrt(alpha)]), alpha)[0]
        assert peak == pytest.approx(bound, rel=1e-15)


def test_filter_validation():
    with pytest.raises(InvalidParameterError):
        filter_factors(np.array([1.0]), 0.0)
    with pytest.raises(InvalidParameterError):
        filter_factors(np.array([-1.0]), 1.0)


# --- null-space residual and minimal-norm solution ------------------------------

def test_null_space_residual_pure_null_data():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    assert null_space_residual(decomp, [0.0, 3.0]) == pytest.approx(3.0)


def test_null_space_residual_full_rank():
    decomp = svd_decompose(DenseOperator(np.eye(3)))
    assert null_space_residual(decomp, [4.0, -1.0, 2.0]) <= 1e-14


def test_null_space_residual_mixed():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    assert null_space_residual(decomp, [4.0, 3.0]) == pytest.approx(3.0)


# Both norms of the range test overflowed to inf or underflowed to 0, so
# data outside the range passed it.
@pytest.mark.parametrize("k", [600, -600])
def test_range_test_holds_at_any_scale_of_the_data(k):
    decomp = diagonal_decomposition([1.0, 0.5, 0.0])
    f = np.array([1.0, 1.0, 1e-3]) * 2.0**k
    with pytest.raises(NotInRangeError):
        minimal_norm_solution(decomp, f)
    assert null_space_residual(decomp, f) == pytest.approx(1e-3 * 2.0**k, rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("read", [null_space_residual, minimal_norm_solution])
def test_null_space_reads_refuse_non_finite_data(read, bad):
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    with pytest.raises(InvalidParameterError, match="finite"):
        read(decomp, [bad, 1.0])


def test_minimal_norm_identity():
    decomp = svd_decompose(DenseOperator(np.eye(2)))
    np.testing.assert_allclose(minimal_norm_solution(decomp, [1.0, 2.0]), [1.0, 2.0])


def test_minimal_norm_forces_null_component_zero():
    decomp = svd_decompose(DenseOperator(np.diag([2.0, 0.0])))
    np.testing.assert_allclose(
        minimal_norm_solution(decomp, [4.0, 0.0]), [2.0, 0.0], atol=1e-14
    )


def test_minimal_norm_row_operator():
    decomp = svd_decompose(DenseOperator([[1.0, 1.0]]))
    np.testing.assert_allclose(minimal_norm_solution(decomp, [2.0]), [1.0, 1.0])


def test_minimal_norm_rejects_out_of_range_data():
    decomp = svd_decompose(DenseOperator(np.diag([1.0, 0.0])))
    with pytest.raises(NotInRangeError) as err:
        minimal_norm_solution(decomp, [4.0, 3.0])
    assert err.value.residual == pytest.approx(3.0)


def test_minimal_norm_orthogonal_to_null_space():
    rng = philox(31)
    low_rank = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 8))
    decomp = svd_decompose(DenseOperator(low_rank))
    f = low_rank @ rng.standard_normal(8)
    y = minimal_norm_solution(decomp, f)
    null_part = decomp.project_domain_complement(y)
    assert np.linalg.norm(null_part) <= 1e-10 * np.linalg.norm(y)


# --- serialization ---------------------------------------------------------------

def test_dense_text_roundtrip(tmp_path):
    rng = philox(13)
    op = DenseOperator(rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, (5, 3)))
    path = tmp_path / "op.txt"
    write_dense_text(op, path)
    back = read_dense_text(path)
    np.testing.assert_array_equal(back.matrix, op.matrix)


def test_dense_text_diagonal_materializes(tmp_path):
    op = DiagonalOperator([2.0, 0.125])
    path = tmp_path / "diag.txt"
    write_dense_text(op, path)
    np.testing.assert_array_equal(read_dense_text(path).matrix, np.diag([2.0, 0.125]))


@pytest.mark.parametrize(
    "text",
    [
        "2.5 2\n1 2\n3 4\n",
        "x y\n1 2\n3 4\n",
        "2 2\n1 abc\n3 4\n",
        "2 2\n1 2\n3\n",
        "2 2\n1 2\n3 4\u00e9\n",
    ],
    ids=["fractional-header", "word-header", "word-cell", "ragged-body", "not-ascii"],
)
def test_dense_text_refuses_malformed_files_naming_them(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(InvalidParameterError, match="bad.txt"):
        read_dense_text(path)


def test_dense_text_rejects_matrix_free(tmp_path):
    op = matrix_free_view(DenseOperator(np.eye(2)))
    with pytest.raises(UnsupportedKindError):
        write_dense_text(op, tmp_path / "nope.txt")
    with pytest.raises(UnsupportedKindError):
        op.matrix


# --- one builder of entries: ``_rows`` ----------------------------------------------

def _gradient_builder(n):
    """The dense builder ``GradientOperator.matrix`` once was."""
    matrix = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    matrix[idx, idx] = -float(n)
    matrix[idx, idx + 1] = float(n)
    return matrix


def _green_builder(n):
    """The dense builder ``GreenOperator.matrix`` once was."""
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    s_col, t_row = np.meshgrid(t, t, indexing="ij")
    return h * np.where(s_col <= t_row, s_col * (t_row - 1.0), t_row * (s_col - 1.0))


def _kind_case(kind, n):
    """(operator, the matrix its kind's earlier builder made)."""
    import scipy.linalg as sla

    rng = philox(900 + n)
    if kind == "dense":
        matrix = rng.standard_normal((n, n + 1))
        matrix[0, 0] = -0.0
        return DenseOperator(matrix), matrix
    if kind == "diagonal":
        values = rng.random(n)
        values[-1] = 0.0
        return DiagonalOperator(values), np.diag(values)
    if kind == "gradient":
        return GradientOperator(n), _gradient_builder(n)
    if kind == "green":
        return GreenOperator(n), _green_builder(n)
    column, row = rng.standard_normal(n), rng.standard_normal(n)
    if kind == "closed form":
        matrix = rng.standard_normal((n, n))
        entries = lambda rows: matrix[rows].copy()  # noqa: E731
        return ToeplitzOperator(column, row, entries=entries), matrix
    hankel = kind == "hankel"
    return ToeplitzOperator(column, row, hankel=hankel), (sla.hankel if hankel else sla.toeplitz)(column, row)


def _bits(a):
    return a.shape, a.tobytes()


@pytest.mark.parametrize("n", [2, 64, 65, 129])
@pytest.mark.parametrize("kind", ["dense", "diagonal", "gradient", "green", "toeplitz", "hankel", "closed form"])
def test_matrix_and_as_dense_matrix_keep_each_kinds_bits(kind, n):
    op, want = _kind_case(kind, n)
    fresh = as_dense_matrix(op)
    assert fresh.flags.writeable
    assert ("matrix" in vars(op)) == (kind == "dense")  # built for the call, not cached
    matrix = op.matrix
    assert not matrix.flags.writeable and op.matrix is matrix
    copy = as_dense_matrix(op)
    assert copy.flags.writeable and not np.shares_memory(copy, matrix)
    for got in (fresh, matrix, copy):
        assert _bits(got) == _bits(want)
    # Bands are the matrix's rows.
    assert _bits(op._rows(1, op.range_dim)) == _bits(want[1:])


def test_operators_are_immutable():
    op = DenseOperator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
    diag = DiagonalOperator([1.0])
    with pytest.raises(ValueError):
        diag.values[0] = 2.0


# --- symmetric matrices: the eigendecomposition path ---------------------------

def _assert_singular_system(decomp, matrix):
    """The ``test_svd_invariants`` checks, plus A v_i = sigma_i u_i."""
    scale = np.linalg.norm(matrix)
    err = np.linalg.norm(decomp.reconstruct() - matrix) / scale
    assert err <= 1e-12
    r = decomp.rank
    for vectors in (decomp.left_vectors, decomp.right_vectors):
        assert np.abs(vectors.T @ vectors - np.eye(r)).max() <= 1e-12
    s = decomp.singular_values
    assert np.all(np.diff(s) <= 0)
    if r:
        assert np.all(s > decomp.rank_tolerance * s[0])
    pairing = matrix @ decomp.right_vectors - decomp.left_vectors * s
    assert np.abs(pairing).max() <= 1e-12 * scale


def test_symmetric_indefinite_singular_system():
    q = np.linalg.qr(philox(61).standard_normal((4, 4)))[0]
    matrix = (q * [3.0, -3.0, 1.0, 0.0]) @ q.T
    matrix = 0.5 * (matrix + matrix.T)  # exactly symmetric
    decomp = svd_decompose(DenseOperator(matrix))
    np.testing.assert_allclose(decomp.singular_values, [3.0, 3.0, 1.0], rtol=1e-12)
    assert decomp.rank == 3
    _assert_singular_system(decomp, matrix)
    # u_i = sign(lambda_i) v_i, one negative eigenvalue among those kept.
    signs = np.sign(np.sum(decomp.left_vectors * decomp.right_vectors, axis=0))
    np.testing.assert_array_equal(np.sort(signs), [-1.0, 1.0, 1.0])
    np.testing.assert_array_equal(decomp.left_vectors, decomp.right_vectors * signs)


def test_negative_definite_deriv2_matches_svd_and_primal():
    # deriv2's own kind has a closed form; its matrix keeps eigh covered
    # on a negative-definite input.
    op = DenseOperator(catalog_operator("deriv2", 64).matrix)
    assert np.all(np.linalg.eigvalsh(op.matrix) < 0)
    decomp = svd_decompose(op)
    reference = np.linalg.svd(op.matrix, compute_uv=False)
    gap = np.abs(decomp.singular_values - reference[: decomp.rank]).max()
    assert gap <= 1e-12 * reference[0]
    np.testing.assert_array_equal(decomp.left_vectors, -decomp.right_vectors)
    _assert_singular_system(decomp, op.matrix)
    f = philox(62).standard_normal(64)
    for alpha in (1e-8, 1e-5, 1e-2):
        spectral = solve_spectral(decomp, f, alpha).u
        primal = solve_primal(op, f, alpha).u
        assert np.linalg.norm(spectral - primal) <= 1e-8 * np.linalg.norm(primal)


def test_one_ulp_asymmetry_takes_the_svd_path(monkeypatch):
    matrix = np.array(catalog_operator("phillips", 32).matrix)
    matrix[0, 1] = np.nextafter(matrix[0, 1], np.inf)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh on a matrix that is not exactly symmetric")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    op = DenseOperator(matrix)
    _assert_singular_system(svd_decompose(op), matrix)
    assert solution_operator_norm(op, 1e-3) > 0


@pytest.mark.parametrize("name", ["hilbert", "deriv2", "phillips"])
def test_symmetric_catalog_needs_no_svd(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("general SVD on an exactly symmetric matrix")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    prob = make_problem(name, 48)
    assert prob.decomp.rank > 0
    assert solution_operator_norm(prob.op, 1e-3) > 0


@pytest.mark.parametrize("label", ["forward", "adjoint"])
def test_matrix_free_rejects_non_callable(label):
    # A None callback used to surface as a raw TypeError inside solve_alpha.
    callbacks = {"forward": lambda x: x, "adjoint": lambda w: w, label: None}
    with pytest.raises(InvalidParameterError, match=label):
        MatrixFreeOperator(2, 2, callbacks["forward"], callbacks["adjoint"])


def _identity(x):
    return x


_SIZED = {
    "gradient": (GradientOperator, "n", 2),
    "green": (GreenOperator, "n", 1),
    "matrix_free_range": (lambda v: MatrixFreeOperator(v, 2, _identity, _identity), "range_dim", 1),
    "matrix_free_domain": (lambda v: MatrixFreeOperator(2, v, _identity, _identity), "domain_dim", 1),
}


@pytest.mark.parametrize(
    "bad", [3.7, "5", None, float("nan"), float("inf"), 0], ids=["3.7", "str", "None", "nan", "inf", "0"]
)
@pytest.mark.parametrize("kind", sorted(_SIZED))
def test_operator_sizes_must_be_integers(kind, bad):
    # 3.7 was truncated to 3 and "5" accepted; None and NaN leaked a bare
    # TypeError or ValueError from int().
    build, name, least = _SIZED[kind]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer >= {least}"):
        build(bad)


@pytest.mark.parametrize("kind", sorted(_SIZED))
def test_operator_sizes_accept_integral_values(kind):
    build, _, least = _SIZED[kind]
    for size in (least + 3, float(least + 3), np.int64(least + 3)):
        op = build(size)
        assert max(op.range_dim, op.domain_dim) == least + 3
        assert type(op.range_dim) is int and type(op.domain_dim) is int


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: svd_decompose(DenseOperator(np.eye(2)), v), "rank_tolerance"),
        (lambda v: diagonal_decomposition([1.0, 2.0], v), "rank_tolerance"),
        (lambda v: operator_norm_estimate(DiagonalOperator([1.0, 2.0]), tol=v), "tol"),
        (lambda v: filter_factors([1.0], v), "alpha"),
    ],
    ids=["svd_decompose", "diagonal_decomposition", "operator_norm_estimate", "filter_factors"],
)
def test_non_numeric_scalars_raise_typed_errors(call, name, bad):
    # None leaked TypeError and "x" ValueError from float().
    with pytest.raises(InvalidParameterError, match=name):
        call(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_filter_factors_refuse_non_finite_values(bad):
    # A NaN value passed the sign test and came back as a NaN factor.
    with pytest.raises(InvalidParameterError, match="singular_values"):
        filter_factors([1.0, bad], 1.0)
