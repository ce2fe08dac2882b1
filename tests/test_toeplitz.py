"""The Toeplitz kind: hilbert (Hankel) and phillips (Toeplitz) applied by FFT.

Each holds the 2n - 1 values on its diagonals and applies A and A^T by one
length-2n ``rfft`` pair.  ``matrix`` is built on first read with the bits
of the dense builders it replaced, but on a phillips grid mirrored
about 0.  Up to ``MAX_DENSE_DIM`` the singular system is the matrix's,
mostly factored without it, and the kernels filter through it, checked
against the dense QR forms; above it the operator has no system and
selection and solves grow a Golub-Kahan space on the FFT apply.
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
    add_noise,
    as_dense_matrix,
    export_problem,
    make_problem,
    read_dense_text,
    regularized_solve_auto,
    solve_dual,
    solve_primal,
    solve_shifted_normal,
    svd_decompose,
)
from regkit.cli import main
from regkit.experiments import run_sweep
from regkit import operators
from regkit.operators import _is_symmetric, _reflection_blocks
from regkit.problems import _grid

from conftest import catalog_operator, philox, phillips_grid, refuse_whole_matrix

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
    op = catalog_operator(name, n)
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


def _reference_phillips(n, mirrored=True):
    """The dense builder this kind replaced: the kernel at every t_i - t_j, in one buffer.

    Its grid is phillips' mirrored one, or ``_grid``'s alone.
    """
    t, h = phillips_grid(n) if mirrored else _grid(n, -6.0, 6.0)
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
    got = catalog_operator(name, n).matrix
    want = reference(n)
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [10, 300, 1000, 1026])
def test_even_phillips_is_reflection_symmetric_bit_for_bit(n):
    # The midpoint grid alone misses t[n-1-i] = -t[i] in the last bit at
    # these n, so the dense builder's matrix is not mirror-exact; phillips
    # negates its grid's left half for the right one.  Each t_i - t_j then
    # moves by a few ulps of 6, and the kernel's slope is at most pi h / 3.
    matrix = as_dense_matrix(catalog_operator("phillips", n))
    reference = _reference_phillips(n, mirrored=False)
    assert np.array_equal(matrix[::-1, ::-1], matrix)
    assert not np.array_equal(reference[::-1, ::-1], reference)
    assert np.abs(matrix - reference).max() <= 16 * np.finfo(float).eps * 12.0 / n


def _assert_same_system(system, want):
    for side in ("singular_values", "right_vectors", "left_vectors"):
        np.testing.assert_array_equal(getattr(system, side), getattr(want, side))


@pytest.mark.parametrize("name, n", [("phillips", 256), ("phillips", 129)])
def test_system_is_the_dense_factorization_bit_for_bit(name, n):
    op = catalog_operator(name, n)
    system = op._system
    assert "matrix" not in vars(op)  # not kept, if built
    _assert_same_system(system, DenseOperator(op.matrix)._system)


@pytest.mark.parametrize("n", [64, 256, 300, 1000, 1024])
def test_even_phillips_factors_its_blocks_without_the_matrix(monkeypatch, n):
    want = DenseOperator(catalog_operator("phillips", n).matrix)._decompose()
    op = refuse_whole_matrix(monkeypatch, catalog_operator("phillips", n))
    _assert_same_system(op._system, want)


@pytest.mark.parametrize("n", [129, 1025])
def test_odd_phillips_factors_its_blocks_without_the_matrix(monkeypatch, n):
    # Its grid is mirrored about an exact 0, so the middle row and column
    # join the even block, as in the dense fold.
    op = catalog_operator("phillips", n)
    want = DenseOperator(as_dense_matrix(op))._system
    system = refuse_whole_matrix(monkeypatch, op)._system
    assert len(system._left_parts) == 2
    assert [v.shape[0] for v, _, _ in system._right_parts] == [n // 2 + 1, n // 2]
    _assert_same_system(system, want)


@pytest.mark.parametrize("n", [256, 1024])
def test_hilbert_system_matches_the_dense_factorization_to_rounding(monkeypatch, n):
    # The random block takes FFT products, which round otherwise than the
    # dense ones: the same values and subspaces, not the same bits.
    matrix = catalog_operator("hilbert", n).matrix
    want = DenseOperator(matrix)._system
    system = refuse_whole_matrix(monkeypatch, catalog_operator("hilbert", n))._system
    scale = want.singular_values[0]
    assert system.rank == want.rank
    assert np.abs(system.singular_values - want.singular_values).max() <= 8 * np.finfo(float).eps * scale
    errors = [np.abs(d.reconstruct() - matrix).max() for d in (system, want)]
    assert errors[0] <= errors[1] + 1e-14 * scale


# --- the structure tests without the matrix ---------------------------------------------

def _structure_case(n, hankel, sign, source):
    """(build, matrix): a fresh operator's builder, and its matrix with every change made.

    t = b + sign b[::-1] makes J A J = sign A: J T J = T^T and J H J reads
    t backwards.  ``source`` reads the entries off t, or from a closed
    form: the matrix itself, with one entry an ulp off, or that entry and
    its mirror, which keeps the reflection and breaks the symmetry.
    """
    b = philox(500 + n).standard_normal(2 * n - 1)
    t = b if sign is None else b + sign * b[::-1]
    # t holds row[n-1], ..., row[1], then the Toeplitz column or the Hankel one reversed.
    column, row = t[n - 1 :][:: -1 if hankel else 1], t[n - 1 :: -1]
    matrix = np.array(ToeplitzOperator(column, row, hankel=hankel).matrix)
    if source != "diagonals":
        if source != "closed form":
            matrix[1, 2] = np.nextafter(matrix[1, 2], np.inf)
        if source == "closed form, one entry and its mirror off":
            matrix[n - 2, n - 3] = (sign or 1.0) * matrix[1, 2]
    entries = None if source == "diagonals" else lambda rows: matrix[rows].copy()
    return (lambda: ToeplitzOperator(column, row, hankel=hankel, entries=entries)), matrix


@pytest.mark.parametrize(
    "source",
    ["diagonals", "closed form", "closed form, one entry off", "closed form, one entry and its mirror off"],
)
@pytest.mark.parametrize("sign", [1.0, -1.0, None], ids=["plus", "minus", "none"])
@pytest.mark.parametrize("hankel", [False, True], ids=["toeplitz", "hankel"])
@pytest.mark.parametrize("n", [8, 9, 130, 131])
def test_structure_tests_agree_with_the_dense_ones(monkeypatch, n, hankel, sign, source):
    build, matrix = _structure_case(n, hankel, sign, source)
    dense_sign = next((s for s in (1.0, -1.0) if np.array_equal(matrix[::-1, ::-1], s * matrix)), None)
    dense_symmetric = _is_symmetric(matrix)
    if source == "diagonals":
        assert dense_sign == sign
        # The test ``_decompose`` reads off t before it tries the random block.
        assert build()._symmetric == dense_symmetric
        assert dense_symmetric == (hankel or sign == 1.0)
    reflected = _reflection_blocks(build()._rows, (n, n))
    if dense_sign is not None:
        assert reflected[1:] == (dense_sign, dense_symmetric)
    else:
        assert reflected is None
    # Whichever way it is built, the system has the dense factorization's
    # bits (no random block below n = 256), and the matrix only where needed.
    op = build()
    if dense_sign is not None:
        refuse_whole_matrix(monkeypatch, op)
    _assert_same_system(op._system, DenseOperator(matrix)._system)


def test_a_closed_form_is_factored_from_its_entries_not_from_t():
    # t is hilbert's, whose random block would certify on t's FFT products;
    # the entries differ from t in one row, so they are what is factored.
    n = 256
    index = np.arange(n, dtype=float)
    column, row = 1.0 / (1.0 + index), 1.0 / (n + index)
    matrix = np.array(ToeplitzOperator(column, row, hankel=True).matrix)
    matrix[0] += 1e-3 * philox(81).standard_normal(n)
    op = ToeplitzOperator(column, row, hankel=True, entries=lambda rows: matrix[rows].copy())
    _assert_same_system(op._system, DenseOperator(matrix)._system)


def test_a_nonsymmetric_toeplitz_takes_no_fft_block(monkeypatch):
    # T = J H, H hilbert's Hankel matrix: T has hilbert's t and values, but
    # T != T^T, so the random block on T's FFT products is not tried.
    n = 256
    index = np.arange(n, dtype=float)
    values = ToeplitzOperator(1.0 / (1.0 + index), 1.0 / (n + index), hankel=True)._values
    op = ToeplitzOperator(values[n - 1 :], values[n - 1 :: -1])
    sketch = operators._sketch

    def dense_only(matrix, symmetric):
        assert not isinstance(matrix, operators._FFTProducts)
        return sketch(matrix, symmetric)

    monkeypatch.setattr(operators, "_sketch", dense_only)
    system = op._system
    assert not _is_symmetric(op.matrix)
    _assert_same_system(system, DenseOperator(op.matrix)._system)


def test_a_zero_facing_its_negative_leaves_the_matrix_to_decide():
    # +0.0 == -0.0, so J A J = A holds in value; the blocks cut from the
    # top rows would hold +0.0 where the matrix's hold -0.0, so the matrix
    # is built and factored whole, as a dense one is, with its bits.
    n = 8
    build, matrix = _structure_case(n, False, 1.0, "closed form")
    for i, j in ((1, 2), (2, 1)):
        matrix[i, j], matrix[n - 1 - i, n - 1 - j] = 0.0, -0.0
    assert np.array_equal(matrix[::-1, ::-1], matrix) and _is_symmetric(matrix)
    assert _reflection_blocks(build()._rows, (n, n)) is None
    _assert_same_system(build()._system, DenseOperator(matrix)._system)


def test_a_failed_cut_is_not_repeated_on_the_matrix(monkeypatch):
    # The matrix built after the cut failed on the rows was cut once more.
    build, matrix = _structure_case(130, False, 1.0, "closed form, one entry off")
    want = DenseOperator(matrix)._system
    cut, calls = operators._reflection_blocks, []
    monkeypatch.setattr(operators, "_reflection_blocks", lambda *args: calls.append(args) or cut(*args))
    _assert_same_system(build()._system, want)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [8, 9])
def test_closed_form_entries_must_be_finite(n, bad):
    # The entry and its mirror are equal bit for bit, so the mirror test
    # alone would pass them to the blocks.
    build, matrix = _structure_case(n, False, 1.0, "closed form")
    matrix[1, 2] = matrix[n - 2, n - 3] = bad
    for read in (lambda op: op._system, lambda op: op.matrix, as_dense_matrix):
        with pytest.raises(InvalidParameterError, match="finite"):
            read(build())


@pytest.mark.parametrize(
    "entries",
    [lambda rows: np.zeros((8, 8)), lambda rows: np.zeros((rows.stop - rows.start, 7))],
    ids=["whole matrix", "short rows"],
)
def test_closed_form_bands_must_have_their_shape(entries):
    op = ToeplitzOperator(np.ones(8), np.ones(8), entries=entries)
    with pytest.raises(InvalidParameterError, match="shape"):
        op._system


def test_closed_form_must_be_callable():
    with pytest.raises(InvalidParameterError, match="callable"):
        ToeplitzOperator(np.ones(4), np.ones(4), entries=np.ones((4, 4)))


@pytest.mark.parametrize("n", [64, 256])
def test_system_does_not_depend_on_a_matrix_already_read(n):
    # At 256 hilbert's system comes from the random block on FFT products,
    # which round otherwise than the dense ones, whether or not the
    # matrix was read first.
    want = catalog_operator("hilbert", n)._system
    op = catalog_operator("hilbert", n)
    matrix = op.matrix
    _assert_same_system(op._system, want)
    assert op.matrix is matrix


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_set_up_holds_no_n_by_n_array(name):
    # phillips keeps its two half-size blocks' eigenvectors, n^2 / 4 doubles
    # each; hilbert its rank-27 random-block factors.  phillips' set-up
    # factors nothing, so its system is built here by reading decomp.
    n = MAX_DENSE_DIM
    tracemalloc.start()
    try:
        prob = make_problem(name, n)
        prob.decomp
        largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert largest <= 8 * n * n // 4 + 2**16
    assert "matrix" not in vars(prob.op)
    op_bytes = sum(a.nbytes for a in (prob.op._values, *prob.op._spectra))
    assert op_bytes <= 64 * n


# --- kernels ---------------------------------------------------------------------------

def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("n", [64, 65, 256, 1024])
@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_kernels_match_dense_routes(name, n):
    # The filter through ``_system`` against the dense QR forms, an
    # independent route; neither reads nor keeps the operator's matrix.
    op = make_problem(name, n).op
    dense = DenseOperator(as_dense_matrix(op))
    rng = philox(70 + n)
    f, b = rng.standard_normal(n), rng.standard_normal(n)
    for alpha in (1e-8, 1e-4, 1.0, 1e3):
        for route in (solve_primal, solve_dual):
            sol, want = route(op, f, alpha), route(dense, f, alpha)
            assert sol.iterations == 0
            assert _rel(sol.u, want.u) <= 1e-8
        x, iterations = solve_shifted_normal(op, b, alpha)
        assert iterations == 0
        assert _rel(x, solve_shifted_normal(dense, b, alpha)[0]) <= 1e-8
    assert "matrix" not in vars(op)


@pytest.mark.parametrize("name", ["hilbert", "phillips"])
def test_solves_build_no_matrix(name):
    # The dense QR forms built and kept the 8 MiB matrix, and peaked at 49 MiB.
    n = 1024
    op = make_problem(name, n).op
    rng = philox(73)
    f, b = rng.standard_normal(n), rng.standard_normal(n)
    tracemalloc.start()
    try:
        for alpha in (1e-8, 1e-3, 1e3):
            solve_primal(op, f, alpha)
            solve_dual(op, f, alpha)
            solve_shifted_normal(op, b, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "matrix" not in vars(op)
    assert peak < 8 * 2**20


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


# --- a space before the system ------------------------------------------------------

def _refuse_factorizations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factored a matrix")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)


def test_phillips_at_the_cap_sets_up_and_selects_without_factoring(monkeypatch):
    # Its set-up ran an eigh of both 2048-row reflection blocks, 1.8 s.
    _refuse_factorizations(monkeypatch)
    prob = make_problem("phillips", MAX_DENSE_DIM)
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), seed=1)
    solution, _ = regularized_solve_auto(prob.op, noisy.f_delta, noisy.delta)
    assert solution.path == "krylov"
    assert abs(solution.residual_norm - 1.5 * noisy.delta) <= 1e-8 * 1.5 * noisy.delta
    assert "_system" not in vars(prob.op)


def test_a_phillips_sweep_factors_nothing(monkeypatch):
    # Only a space that fails to certify builds the system, so no level
    # after the first factors either.
    _refuse_factorizations(monkeypatch)
    records = run_sweep("phillips", 2048, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], seed=1)
    assert all(np.isfinite(r.alpha) for r in records)


@pytest.mark.parametrize("off", [False, True], ids=["palindrome", "one ulp off"])
def test_a_symmetric_closed_form_selects_on_a_space_first(off):
    # phillips' t and entries; t one ulp off a palindrome is not symmetric,
    # and is factored at once, from its (symmetric) entries.
    n = 128
    prob = make_problem("phillips", n)
    values = prob.op._values
    column, row = values[n - 1 :], np.array(values[n - 1 :: -1])
    if off:
        row[5] = np.nextafter(row[5], np.inf)
    op = ToeplitzOperator(column, row, entries=prob.op._closed_form)
    assert op._space_first is not off
    noisy = add_noise(prob, 1e-2 * np.linalg.norm(prob.f), seed=2)
    solution, _ = regularized_solve_auto(op, noisy.f_delta, noisy.delta)
    assert solution.path == ("spectral" if off else "krylov")
    assert ("_system" in vars(op)) is off


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


def test_export_caches_no_matrix(tmp_path):
    prob = make_problem("phillips", 64)
    export_problem(prob, tmp_path / "phillips.txt", tmp_path / "phillips.json")
    assert "matrix" not in vars(prob.op)
    np.testing.assert_array_equal(read_dense_text(tmp_path / "phillips.txt").matrix, prob.op.matrix)


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
