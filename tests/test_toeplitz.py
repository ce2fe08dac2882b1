"""The Toeplitz kind: hilbert (Hankel) and phillips (Toeplitz) applied by FFT.

Each holds the 2n - 1 values on its diagonals and applies A and A^T by one
length-2n ``rfft`` pair.  ``matrix`` is built on first read with the bits
of the dense builders it replaced, and up to ``MAX_DENSE_DIM`` the singular
system and the QR kernels run on that matrix; above it the operator has no
system and selection grows a Golub-Kahan space on the FFT apply.
"""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from regkit import (
    MAX_DENSE_DIM,
    DenseOperator,
    DimensionMismatchError,
    InvalidParameterError,
    SizeLimitError,
    ToeplitzOperator,
    as_dense_matrix,
    export_problem,
    make_problem,
    read_dense_text,
    solve_dual,
    solve_primal,
    solve_shifted_normal,
    svd_decompose,
)
from regkit.cli import main
from regkit.problems import _grid

from conftest import philox

_LARGE = 100_000


def _assert_products_match(op, matrix, rng, draws=3):
    """apply and apply_adjoint entrywise within 1e-15 ||A||_2 ||x|| of the dense products."""
    norm = np.linalg.norm(matrix, 2)
    for _ in range(draws):
        x = rng.standard_normal(op.domain_dim)
        limit = 1e-15 * norm * np.linalg.norm(x)
        assert np.abs(op.apply(x) - matrix @ x).max() <= limit
        assert np.abs(op.apply_adjoint(x) - matrix.T @ x).max() <= limit


@pytest.mark.parametrize("n", [1, 2, 7, 8, 33])
@pytest.mark.parametrize("hankel", [False, True], ids=["toeplitz", "hankel"])
def test_matches_scipy_toeplitz_and_hankel(n, hankel):
    rng = philox(400 + n)
    column, row = rng.standard_normal(n), rng.standard_normal(n)
    want = (sla.hankel if hankel else sla.toeplitz)(column, row)
    op = ToeplitzOperator(column, row, hankel=hankel)
    assert op.kind == "toeplitz" and (op.range_dim, op.domain_dim) == (n, n)
    np.testing.assert_array_equal(op.matrix, want)
    _assert_products_match(op, want, rng)


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
@pytest.mark.parametrize("n", [64, 65, 1024, 1025])
def test_catalog_products_match_the_matrix(name, n):
    op = make_problem(name, n, decompose=False).op
    assert isinstance(op, ToeplitzOperator)
    _assert_products_match(op, op.matrix, philox(n))


# --- the matrix keeps the dense builders' bits ---------------------------------------

def _reference_hilbert(n):
    """The dense builder this kind replaced: 1 / (1 + i + j) in one buffer."""
    index = np.arange(n, dtype=float)
    hilbert = np.add.outer(index, index)
    hilbert += 1.0
    np.divide(1.0, hilbert, out=hilbert)
    return hilbert


def _reference_phillips(n):
    """The dense builder this kind replaced: the kernel at every t_i - t_j, in one buffer."""
    t, h = _grid(n, -6.0, 6.0)
    kernel = np.subtract.outer(t, t)
    outside = kernel >= 3.0
    outside |= kernel <= -3.0
    kernel *= np.pi
    kernel /= 3.0
    np.cos(kernel, out=kernel)
    kernel += 1.0
    kernel[outside] = 0.0
    kernel *= h
    return kernel


@pytest.mark.parametrize(
    "name, n",
    [("hilbert", n) for n in (2, 5, 300, 1024, 4096)]
    + [("phillips", n) for n in (4, 5, 128, 129, 1025, 4095, 4096)],
)
def test_matrix_has_the_dense_builders_bits(name, n):
    reference = {"hilbert": _reference_hilbert, "phillips": _reference_phillips}[name]
    got = make_problem(name, n, decompose=False).op.matrix
    want = reference(n)
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name, n", [("hilbert", 256), ("phillips", 256), ("phillips", 129)])
def test_system_is_the_dense_factorization_bit_for_bit(name, n):
    op = make_problem(name, n, decompose=False).op
    system = op._system
    assert "matrix" not in vars(op)  # built for the factorization and dropped
    want = DenseOperator(op.matrix)._system
    np.testing.assert_array_equal(system.singular_values, want.singular_values)
    np.testing.assert_array_equal(system.right_vectors, want.right_vectors)
    np.testing.assert_array_equal(system.left_vectors, want.left_vectors)


def test_system_reuses_a_matrix_already_read(monkeypatch):
    op = make_problem("hilbert", 64, decompose=False).op
    matrix = op.matrix
    monkeypatch.setattr(op, "_entries", lambda: pytest.fail("matrix built twice"))
    assert op._system.rank > 0
    assert op.matrix is matrix


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_set_up_holds_no_n_by_n_array(name):
    # phillips keeps its two half-size blocks' eigenvectors, n^2 / 4 doubles
    # each; hilbert its rank-27 random-block factors.
    n = MAX_DENSE_DIM
    tracemalloc.start()
    try:
        prob = make_problem(name, n)
        largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert largest <= 8 * n * n // 4 + 2**16
    assert "matrix" not in vars(prob.op)
    op_bytes = sum(a.nbytes for a in (prob.op._values, *prob.op._spectra))
    assert op_bytes <= 64 * n


# --- kernels ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_kernels_are_the_dense_qr_forms_up_to_the_cap(name):
    op = make_problem(name, 64).op
    dense = DenseOperator(op.matrix)
    rng = philox(71)
    f, b = rng.standard_normal(64), rng.standard_normal(64)
    for alpha in (1e-8, 1e-3, 1.0):
        for route in (solve_primal, solve_dual):
            np.testing.assert_array_equal(route(op, f, alpha).u, route(dense, f, alpha).u)
        np.testing.assert_array_equal(
            solve_shifted_normal(op, b, alpha)[0], solve_shifted_normal(dense, b, alpha)[0]
        )


def test_above_the_cap_solves_grow_a_krylov_space():
    n = MAX_DENSE_DIM + 1
    op = make_problem("hilbert", n).op
    assert op._system is None
    with pytest.raises(SizeLimitError):
        op.matrix
    with pytest.raises(SizeLimitError):
        svd_decompose(op)
    f = philox(72).standard_normal(n)
    alpha = 1e-4
    primal = solve_primal(op, f, alpha)
    assert primal.iterations > 0
    normal = op.apply_adjoint(op.apply(primal.u) - f) + alpha * primal.u
    assert np.linalg.norm(normal) <= 1e-10 * np.linalg.norm(op.apply_adjoint(f))
    np.testing.assert_array_equal(solve_dual(op, f, alpha).u, primal.u)


# --- the catalog above the cap -------------------------------------------------------

@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_make_problem_above_the_cap(name):
    tracemalloc.start()
    try:
        prob = make_problem(name, _LARGE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A dense matrix would need 8 n^2 bytes, 80 GB here.
    assert peak < 256 * _LARGE
    assert prob.decomp is None
    # The unprojected profile: hilbert's all-ones y is not minimal-norm here.
    if name == "hilbert":
        np.testing.assert_array_equal(prob.y, np.ones(_LARGE))
    np.testing.assert_array_equal(prob.f, prob.op.apply(prob.y))


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_choose_alpha_above_the_cap(name, capsys):
    argv = ["choose-alpha", "--problem", name, "--n", str(_LARGE), "--delta", "1e-3"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["residual"] - 1.5 * record["delta"]) <= 1e-8 * 1.5 * record["delta"]
    assert record["u_norm"] <= (1 + 1e-10) * record["y_norm"]


# --- the other entry points --------------------------------------------------------------

def test_svd_decompose_as_dense_and_export_accept_the_kind(tmp_path):
    prob = make_problem("hilbert", 64)
    truncated = svd_decompose(prob.op)
    assert 0 < truncated.rank < 64
    dense = as_dense_matrix(prob.op)
    np.testing.assert_array_equal(dense, prob.op.matrix)
    assert dense.flags.writeable  # a copy
    export_problem(prob, tmp_path / "hilbert.txt", tmp_path / "hilbert.json")
    np.testing.assert_array_equal(read_dense_text(tmp_path / "hilbert.txt").matrix, dense)


@pytest.mark.parametrize(
    "column, row, error",
    [
        ([1.0, 2.0], [1.0], DimensionMismatchError),
        ([], [], InvalidParameterError),
        ([[1.0]], [[1.0]], DimensionMismatchError),
        ([1.0, np.nan], [1.0, 0.0], InvalidParameterError),
        ([1.0, 2.0], [1.0, np.inf], InvalidParameterError),
        ([1.0 + 1j, 0.0], [1.0, 0.0], InvalidParameterError),
    ],
    ids=["lengths", "empty", "2-d", "nan", "inf", "complex"],
)
def test_bad_diagonals_raise_typed_errors(column, row, error):
    with pytest.raises(error):
        ToeplitzOperator(column, row)
