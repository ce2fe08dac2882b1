"""Dense set-up holds one copy of each factor, with the same bits.

hilbert and phillips factor without their n x n matrix: hilbert's random
block takes FFT products, and phillips, at every n, cuts its two
reflection blocks in place of its top rows.  A matrix that must be
factored whole (hilbert below the random block's least width) is built
in one buffer for the factorization and dropped, and a symmetric
matrix's singular system keeps its eigenvectors once, with
u_i = sign(lambda_i) v_i.  tracemalloc counts numpy's array
buffers deterministically; LAPACK's own workspace is not among them.
Each test here passes alone and in any order: ``pytest
tests/test_setup_memory.py`` runs them in a process of their own.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from regkit import DenseOperator, GreenOperator, as_dense_matrix, make_problem, svd_decompose
from regkit.operators import _factor, _fold, _kept, _sketch, _unfold

from conftest import catalog_operator, philox, phillips_grid

# numpy.fft and numpy.random load on first use, by the Toeplitz products and
# ``_sketch``'s random block; loading them here keeps their modules out of
# the traced figures whatever test runs first.
import numpy.fft  # noqa: E402,F401
import numpy.random  # noqa: E402,F401

MiB = 2**20

#: Python objects and numpy array headers that a problem holds besides its
#: array buffers: the instance, the operator, the system, their dicts,
#: tuples and the partial.
HEADERS = 12 * 2**10

#: Length-n float vectors that a problem may hold besides its factors: y,
#: f, the grid, the singular values and signs, t (2n) and its two spectra
#: (2 x 2n); about 12 are held.
VECTORS = 16


def _held_bytes(*roots):
    """Bytes of the distinct array buffers that roots hold, through regkit objects, tuples, closures and partials."""
    seen, total, stack = set(), 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
            else:
                total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, functools.partial):
            stack.extend(obj.args)
        elif type(obj).__module__.startswith("regkit"):
            stack.extend(vars(obj).values())
    return total


def _traced(build):
    """(result, kept, peak): build()'s result, and the bytes it left held and held at most."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


def test_phillips_set_up_holds_one_factor_and_no_matrix():
    # The two blocks' eigenvectors (4 MiB), kept once, and nothing but the
    # problem's own arrays and their headers besides.  No matrix (8 MiB) is
    # built: the peak above what is kept is the second block (2 MiB) while
    # it is factored, the first's eigenvectors being kept, and a band of
    # rows' temporaries.
    # The set-up factors nothing; the first read of decomp does.
    n = 1024
    prob = make_problem("phillips", n)
    assert "_system" not in vars(prob.op)
    decomp, kept, peak = _traced(lambda: prob.decomp)
    assert "matrix" not in vars(prob.op)
    factors = {id(v): v.nbytes for v, _, _ in decomp._right_parts}
    assert sum(factors.values()) == 4 * MiB
    # Left factors share the right ones' buffers (u_i = sign_i v_i).
    assert all(id(v) in factors for v, _, _ in decomp._left_parts)
    held = _held_bytes(decomp)
    # A second factor, a kept half or the matrix fails one of these.
    assert 4 * MiB <= held <= 4 * MiB + VECTORS * 8 * n
    assert held <= kept <= held + HEADERS
    assert peak - kept <= 2.5 * MiB
    assert prob.op.matrix.nbytes == 8 * MiB  # built on first read


def test_hilbert_set_up_makes_no_full_size_temporary():
    # Nothing full-size: the peak is two 64-row bands, which show that
    # hilbert is not reflection-symmetric, and the random block's FFT
    # products, (2n, 32) arrays.
    n = 1024
    prob, kept, peak = _traced(lambda: make_problem("hilbert", n))
    factor = prob.decomp.right_vectors.nbytes
    held = _held_bytes(prob)
    assert factor <= held <= factor + VECTORS * 8 * n
    assert held <= kept <= held + HEADERS
    assert kept <= 0.3 * MiB
    assert peak - kept <= 1.6 * MiB


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_set_up_peaks_below_one_matrix(name):
    # Each once built its 8 MiB matrix for the factorization; odd-n
    # phillips also factored it whole, and peaked at 16.6 MiB.  phillips'
    # system is built when decomp is first read.
    for n in (1024, 1025):
        _, _, peak = _traced(lambda: make_problem(name, n).decomp)
        assert peak < 8 * MiB, n


def test_as_dense_matrix_builds_one_matrix_and_caches_none():
    n = 1024
    op = make_problem("phillips", n).op
    matrix, kept, peak = _traced(lambda: as_dense_matrix(op))
    assert "matrix" not in vars(op)
    assert matrix.flags.writeable
    # The matrix, and while it is built the kernel's two n^2-byte masks.
    assert kept <= matrix.nbytes + HEADERS
    assert peak <= matrix.nbytes + 2.1 * n * n
    np.testing.assert_array_equal(matrix, op.matrix)
    # A matrix already read is copied: the copy is all that is added.
    copy, kept, _ = _traced(lambda: as_dense_matrix(op))
    assert kept <= copy.nbytes + HEADERS
    assert not np.shares_memory(copy, op.matrix)


def test_green_rows_peak_near_two_matrices():
    # The output and the other branch under its mask.  Built through
    # np.meshgrid and a three-array np.where they peaked at 41.0 MiB, five
    # matrices.
    n = 1024
    matrix, _, peak = _traced(lambda: as_dense_matrix(GreenOperator(n)))
    assert matrix.nbytes == 8 * MiB
    assert peak <= 2.2 * matrix.nbytes


def test_symmetric_system_keeps_one_factor():
    # hilbert is symmetric but not reflection-symmetric, and at n = 255 too
    # narrow for the random block: its system is one whole-matrix eigh,
    # every value kept.
    n = 255
    op = catalog_operator("hilbert", n)
    system, kept, peak = _traced(lambda: op._system)
    assert system.rank == n
    assert system.right_vectors.nbytes <= kept <= 1.1 * n * n * 8
    # Above what is kept: the matrix, built for the factorization and
    # dropped, one 64-row band of eigh's Q, a quarter of it at this n,
    # while it is sorted in place, and small temporaries.  Q copied
    # column by column would add a second Q.
    assert peak - kept <= (n + 64) * n * 8 + 2**14
    # The left vectors are built on first read.
    assert "left_vectors" not in vars(system)


@pytest.mark.parametrize("n", [1, 7, 64, 65, 130])
def test_eigenvectors_sorted_in_place_keep_the_copied_columns_bits(n):
    # Copying the sorted columns out of eigh's Q gives a Fortran-ordered
    # array; sorted in Q's own buffer they must have that layout too, or
    # every product with them rounds differently.
    matrix = _whole(n, philox(200 + n))
    lam, q = np.linalg.eigh(matrix)
    order = np.argsort(-np.abs(lam), kind="stable")
    s, pick = _factor(matrix, True)
    np.testing.assert_array_equal(s, np.abs(lam[order]))
    f = philox(300 + n).standard_normal(n)
    for count in {n, max(1, n - 3)}:
        want = q[:, order[:count]]
        _, right, signs = pick(np.arange(count))
        np.testing.assert_array_equal(right, want)
        np.testing.assert_array_equal(signs, np.where(lam[order[:count]] < 0, -1.0, 1.0))
        assert right.strides == want.strides
        np.testing.assert_array_equal(right.T @ f, want.T @ f)
        np.testing.assert_array_equal(right @ f[:count], want @ f[:count])


@pytest.mark.parametrize("side", ["left_vectors", "right_vectors"])
def test_reflection_vectors_are_unfolded_without_the_identity(side):
    # Synthesizing them from np.eye(rank) through the parts peaked at four
    # times the result: the identity, its gathered rows, the unfolded
    # halves and their concatenation, and a read-only copy.
    decomp = make_problem("phillips", 1024).decomp
    vectors, kept, peak = _traced(lambda: getattr(decomp, side))
    assert kept >= vectors.nbytes == 8 * MiB
    assert peak <= 1.5 * vectors.nbytes


@pytest.mark.parametrize("n", [128, 129, 1024, 1025])
def test_builders_give_the_expressions_bits(n):
    index = np.arange(n)
    hilbert = 1.0 / (1.0 + np.add.outer(index, index))
    t, h = phillips_grid(n)
    diff = t[:, None] - t[None, :]
    phillips = h * np.where(np.abs(diff) < 3.0, 1.0 + np.cos(np.pi * diff / 3.0), 0.0)
    for name, want in (("hilbert", hilbert), ("phillips", phillips)):
        got = catalog_operator(name, n).matrix
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_catalog_matrix_is_read_only(name):
    matrix = catalog_operator(name, 64).matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0


@pytest.mark.parametrize("writeable", [True, False])
def test_dense_operator_aliases_no_caller_array(writeable):
    array = philox(3).standard_normal((5, 4))
    array.setflags(write=writeable)
    op = DenseOperator(array)
    assert not np.shares_memory(op.matrix, array)
    assert not op.matrix.flags.writeable
    np.testing.assert_array_equal(op.matrix, array)


def _signed_copy(vectors, signs):
    """The left vectors u_i = signs_i v_i as their own array, as stored before they were shared."""
    return vectors * signs


def _whole(n, rng):
    s = rng.standard_normal((n, n))
    return s + s.T


@pytest.mark.parametrize("n", [7, 64, 300])
def test_shared_whole_matrix_factor_gives_the_signed_copy_bits(n):
    # Indefinite, so both signs occur; not reflection-symmetric.
    rng = philox(n)
    matrix = _whole(n, rng)
    decomp = svd_decompose(DenseOperator(matrix), 0.0)
    s, pick = _factor(matrix, True)
    _, right, signs = pick(_kept(s, 0.0))
    assert np.any(signs < 0) and np.any(signs > 0)
    left = _signed_copy(right, signs)
    np.testing.assert_array_equal(decomp.right_vectors, right)
    f, c = rng.standard_normal(n), rng.standard_normal(decomp.rank)
    np.testing.assert_array_equal(decomp._left_t(f), left.T @ f)
    np.testing.assert_array_equal(decomp._left(c), left @ c)
    np.testing.assert_array_equal(decomp.left_vectors, left)
    assert decomp.left_vectors is decomp.left_vectors


def _nonsymmetric_factors(matrix, block):
    """(sigma, left, right) above 0 from np.linalg.svd of the matrix, or of ``_sketch``'s block."""
    if block:
        s, pick = _sketch(matrix, False)
        keep = _kept(s, 0.0)
        left, right, signs = pick(keep)
        assert signs is None
        return s[keep], left, right
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    keep = _kept(s, 0.0)
    return s[keep], u[:, keep], vt[keep].T


@pytest.mark.parametrize(
    "shape, block",
    [((7, 7), False), ((64, 64), False), ((300, 300), False), ((5, 8), False), ((300, 600), True)],
    ids=["7x7", "64x64", "300x300", "5x8", "block300x600"],
)
def test_whole_matrix_svd_system_gives_the_factors_bits(shape, block):
    # Nonsymmetric and not reflection-symmetric: one block, from the SVD of
    # the whole matrix or of the random block, whose stored factors are the
    # system's vectors.
    rng = philox(400 + shape[0])
    if block:  # rank 30, below the block's width, so the block certifies
        matrix = rng.standard_normal((shape[0], 30)) @ rng.standard_normal((30, shape[1]))
    else:
        matrix = rng.standard_normal(shape)
    decomp = svd_decompose(DenseOperator(matrix), 0.0)
    s, left, right = _nonsymmetric_factors(matrix, block)
    assert len(decomp._left_parts) == 1
    assert decomp.left_vectors is decomp._left_parts[0][0]
    assert decomp.right_vectors is decomp._right_parts[0][0]
    assert not decomp.left_vectors.flags.writeable and not decomp.right_vectors.flags.writeable
    for got, want in zip(
        (decomp.singular_values, decomp.left_vectors, decomp.right_vectors), (s, left, right)
    ):
        np.testing.assert_array_equal(got, want)
    f, x, c = (rng.standard_normal(k) for k in (shape[0], shape[1], decomp.rank))
    np.testing.assert_array_equal(decomp._left_t(f), left.T @ f)
    np.testing.assert_array_equal(decomp._right_t(x), right.T @ x)
    np.testing.assert_array_equal(decomp._left(c), left @ c)
    np.testing.assert_array_equal(decomp._right(c), right @ c)


@pytest.mark.parametrize("n", [8, 9, 128, 129])
def test_shared_reflection_factors_give_the_signed_copy_bits(n):
    # J A J = A and symmetric: each half-size block takes eigh.
    rng = philox(100 + n)
    b = _whole(n, rng)
    matrix = b + b[::-1, ::-1]
    decomp = svd_decompose(DenseOperator(matrix), 0.0)
    signed = []
    for vectors, signs, where in decomp._left_parts:
        assert signs is not None
        assert any(vectors is v for v, _, _ in decomp._right_parts)
        signed.append((_signed_copy(vectors, signs), where))
    f, c = rng.standard_normal(n), rng.standard_normal(decomp.rank)
    want = np.empty(decomp.rank)
    for (vectors, where), half in zip(signed, _fold(f)):
        want[where] = vectors.T @ half
    np.testing.assert_array_equal(decomp._left_t(f), want)
    np.testing.assert_array_equal(
        decomp._left(c), _unfold(*(vectors @ c[where] for vectors, where in signed))
    )
    eye = np.eye(decomp.rank)
    np.testing.assert_array_equal(
        decomp.left_vectors, _unfold(*(vectors @ eye[where] for vectors, where in signed))
    )
