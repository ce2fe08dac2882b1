"""Dense matrices with J A J = +-A, J the reversal, factored as two half-size blocks.

Also which eigh and SVD calls other dense matrices take.
"""

import math

import numpy as np
import pytest

from regkit import DenseOperator, GradientOperator, svd_decompose
from regkit.operators import (
    DEFAULT_RANK_TOLERANCE,
    _SKETCH_WIDTH,
    _factor,
    _fold,
    _kept,
    _parities,
    _reflection_blocks,
)

from conftest import catalog_operator, philox


def _flip(b):
    return b[::-1, ::-1]


def _blocks(decomp):
    """How many blocks the system was factored as: 2 for reflection blocks, 1 for the whole matrix."""
    return len(decomp._left_parts)


def _folded(b):
    """b read at min(i, m-1-i), min(j, n-1-j): even in both indices, so its odd block is zero."""
    m, n = b.shape
    rows, cols = np.arange(m), np.arange(n)
    return b[np.minimum(rows, m - 1 - rows)][:, np.minimum(cols, n - 1 - cols)]


def _symmetric(n, rng):
    s = rng.standard_normal((n, n))
    return s + s.T


def _cases():
    rng = philox(23)
    cases = [("1x1", np.array([[2.0]]))]
    for m, n in [(1, 6), (1, 5), (6, 1), (5, 1), (2, 3), (7, 7), (8, 8), (6, 9)]:
        b = rng.standard_normal((m, n))
        cases.append((f"{m}x{n}+", b + _flip(b)))
        cases.append((f"{m}x{n}-", b - _flip(b)))
    cases += [
        ("zero", np.zeros((4, 5))),
        ("zero_odd_block_7x6", _folded(rng.standard_normal((7, 6)))),
        ("zero_odd_block_8x8", _folded(rng.standard_normal((8, 8)))),
        ("gradient8", GradientOperator(8).matrix),
        ("gradient9", GradientOperator(9).matrix),
    ]
    for n in (7, 8):
        s = _symmetric(n, rng)
        cases.append((f"symmetric{n}+", s + _flip(s)))
        cases.append((f"symmetric{n}-", s - _flip(s)))
    return cases


CASES = _cases()


@pytest.mark.parametrize("matrix", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_split_is_a_singular_system_of_the_matrix(matrix):
    m, n = matrix.shape
    decomp = svd_decompose(DenseOperator(matrix), 0.0)
    assert _blocks(decomp) == 2
    s, left, right = decomp.singular_values, decomp.left_vectors, decomp.right_vectors
    oracle = np.linalg.svd(matrix, compute_uv=False)
    scale = oracle[0]
    padded = np.concatenate([s, np.zeros(min(m, n) - decomp.rank)])
    assert np.abs(padded - oracle).max() <= 1e-13 * scale
    assert np.all(np.diff(s) <= 0)
    assert (decomp.range_dim, decomp.domain_dim) == (m, n)
    assert left.shape == (m, decomp.rank) and right.shape == (n, decomp.rank)
    assert np.abs(decomp.reconstruct() - matrix).max() <= 1e-13 * scale
    for vectors in (left, right):
        assert np.abs(vectors.T @ vectors - np.eye(decomp.rank)).max(initial=0.0) <= 1e-13

    rng = philox(m * 100 + n)
    f, x, c = (rng.standard_normal(k) for k in (m, n, decomp.rank))
    for got, want in (
        (decomp._left_t(f), left.T @ f),
        (decomp._right_t(x), right.T @ x),
        (decomp._left(c), left @ c),
        (decomp._right(c), right @ c),
    ):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * (1.0 + np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("matrix", [c[1] for c in CASES], ids=[c[0] for c in CASES])
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_quadrant_blocks_are_the_folds_bits(matrix, rows, cols):
    want = _fold(_fold(matrix)[rows].T)[cols].T
    blocks, sign, _ = _reflection_blocks(lambda start, stop: matrix[start:stop], matrix.shape)
    parities = _parities(sign)
    if (rows, cols) not in parities:
        # J A J = sign A leaves the other two blocks exactly zero: they are not cut.
        assert not want.any()
        return
    got = blocks[parities.index((rows, cols))]
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_split_truncates_the_merged_spectrum():
    # The odd block's values sit below 1e-12 of the even block's largest.
    rng = philox(29)
    b = 1e-15 * rng.standard_normal((8, 8))
    matrix = _folded(rng.standard_normal((8, 8))) + (b + _flip(b))
    assert np.array_equal(_flip(matrix), matrix)
    full, truncated = (svd_decompose(DenseOperator(matrix), t) for t in (0.0, 1e-12))
    assert full.rank == 8
    assert truncated.rank == 4
    np.testing.assert_array_equal(truncated.singular_values, full.singular_values[:4])


def test_one_entry_off_takes_the_whole_matrix():
    rng = philox(31)
    b = rng.standard_normal((6, 6))
    matrix = b + _flip(b)
    matrix[2, 3] = np.nextafter(matrix[2, 3], np.inf)
    decomp = svd_decompose(DenseOperator(matrix), 0.0)
    assert _blocks(decomp) == 1


@pytest.mark.parametrize("shape", [(6, 6), (7, 7), (5, 8)], ids=["6x6", "7x7", "5x8"])
def test_a_zero_facing_its_negative_takes_the_whole_matrix(shape):
    # +0.0 == -0.0, so J A J = A holds in value; blocks cut from the top
    # rows would hold +0.0 where the bottom rows hold -0.0, so the matrix
    # is factored whole, and its system has the value-equal matrix's values.
    rng = philox(33)
    b = rng.standard_normal(shape)
    matrix = b + _flip(b)
    matrix[0, 1], matrix[-1, -2] = 0.0, -0.0
    assert np.array_equal(_flip(matrix), matrix)
    assert _reflection_blocks(lambda start, stop: matrix[start:stop], shape) is None
    decomp = svd_decompose(DenseOperator(matrix), 0.0)
    assert _blocks(decomp) == 1
    signless = matrix + 0.0  # -0.0 + 0.0 is +0.0
    want = svd_decompose(DenseOperator(signless), 0.0)
    assert _blocks(want) == 2
    scale = want.singular_values[0]
    assert np.abs(decomp.singular_values - want.singular_values).max() <= 1e-14 * scale
    assert np.abs(decomp.reconstruct() - want.reconstruct()).max() <= 1e-14 * scale


def test_a_zero_band_with_a_mirrored_negative_zero_keeps_its_sign():
    # -0.0 facing -0.0 holds J A J = A bit for bit; the zero band matches
    # -A only in value, which rules out the sign -1, not the blocks.
    n = 130
    b = philox(35).standard_normal((n, n))
    matrix = b + _flip(b)
    matrix[: n // 2 - 1] = matrix[n // 2 + 1 :] = 0.0
    matrix[0, 1] = matrix[-1, -2] = -0.0
    blocks, sign, symmetric = _reflection_blocks(lambda start, stop: matrix[start:stop], matrix.shape)
    assert sign == 1.0 and not symmetric
    for got, (rows, cols) in zip(blocks, _parities(sign)):
        want = _fold(_fold(matrix)[rows].T)[cols].T
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _factorizations(monkeypatch, matrix, rank_tolerance=DEFAULT_RANK_TOLERANCE):
    """The (name, shape) of every eigh and SVD call that factoring the matrix makes."""
    calls = []
    for name in ("eigh", "svd"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    svd_decompose(DenseOperator(matrix), rank_tolerance)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "name, factorization",
    [("phillips", "eigh"), ("deriv2", "eigh"), ("gradient_family", "svd")],
)
def test_catalog_matrices_factor_only_half_size_blocks(monkeypatch, name, factorization):
    n = 128
    calls = _factorizations(monkeypatch, catalog_operator(name, n).matrix)
    assert [kind for kind, _ in calls] == [factorization] * 2
    assert max(max(shape) for _, shape in calls) <= math.ceil(n / 2)


def test_symmetric_blocks_of_opposite_parity_take_the_svd(monkeypatch):
    s = _symmetric(8, philox(37))
    calls = _factorizations(monkeypatch, s - _flip(s))
    assert calls == [("svd", (4, 4))] * 2


def test_hilbert_is_factored_whole(monkeypatch):
    n = 128
    calls = _factorizations(monkeypatch, catalog_operator("hilbert", n).matrix)
    assert calls == [("eigh", (n, n))]


def test_truncated_hilbert_factors_only_the_block(monkeypatch):
    calls = _factorizations(monkeypatch, catalog_operator("hilbert", 1024).matrix)
    assert calls == [("eigh", (_SKETCH_WIDTH, _SKETCH_WIDTH))]


def test_untruncated_hilbert_takes_the_block(monkeypatch):
    # The operator's own system, _decompose(0.0), keeps every sigma above
    # n eps sigma_1, which the block certifies: the values below carry no
    # correct digits from a whole-matrix eigh either.
    n = 256
    calls = _factorizations(monkeypatch, catalog_operator("hilbert", n).matrix, 0.0)
    assert calls == [("eigh", (_SKETCH_WIDTH, _SKETCH_WIDTH))]


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
def test_full_rank_matrices_are_factored_whole_after_the_block(monkeypatch, symmetric):
    n = 512
    matrix = _symmetric(n, philox(47)) if symmetric else philox(47).standard_normal((n, n))
    calls = _factorizations(monkeypatch, matrix)
    kind = "eigh" if symmetric else "svd"
    block = (_SKETCH_WIDTH, _SKETCH_WIDTH if symmetric else n)
    assert calls == [(kind, block), (kind, (n, n))]
    # The whole-matrix route, bit for bit.
    decomp = svd_decompose(DenseOperator(matrix))
    s, pick = _factor(matrix, symmetric)
    keep = _kept(s, decomp.rank_tolerance)
    left, right, signs = pick(keep)
    if signs is not None:  # eigh: u_i = sign(lambda_i) v_i
        left = left * signs
    for got, want in zip(
        (decomp.singular_values, decomp.left_vectors, decomp.right_vectors),
        (s[keep], left, right),
    ):
        np.testing.assert_array_equal(got, want)
