"""Truncated singular systems of numerically low-rank dense matrices from one random block."""

import functools
from unittest import mock

import numpy as np
import pytest

from regkit import DenseOperator, regularized_solve_auto, svd_decompose
from regkit import operators
from regkit.operators import _SKETCH_WIDTH

from conftest import catalog_operator, philox


def _low_rank(m, n, indefinite=False):
    """X diag(10^(-j/2.2)) Y^T with orthonormal X (m x k), Y (n x k), k = min(m, n): rank 27.

    With 10^(-j/2), sigma_24 / sigma_1 would be 1e-12 itself, the cut, and
    the two routes round it to opposite sides of it.  ``indefinite`` takes
    Y = X and alternates the signs, then symmetrizes exactly.
    """
    rng = philox(41)
    x, y = (np.linalg.qr(rng.standard_normal((rows, rows)))[0] for rows in (m, n))
    k = min(m, n)
    x, y, d = x[:, :k], y[:, :k], 10.0 ** (-np.arange(k) / 2.2)
    if indefinite:
        b = (x * (d * (-1.0) ** np.arange(k))) @ x.T
        return (b + b.T) / 2.0
    return (x * d) @ y.T


CASES = {f"hilbert{n}": (lambda n=n: catalog_operator("hilbert", n).matrix)
         for n in (256, 512, 1024, 2048)}
for m, n in [(512, 512), (300, 600), (600, 300)]:
    CASES[f"low_rank{m}x{n}"] = lambda m=m, n=n: _low_rank(m, n)
CASES["indefinite512"] = lambda: _low_rank(512, 512, indefinite=True)


def _routes(name):
    """(matrix, sketched, direct): the default-truncated system by each route."""
    matrix = CASES[name]()
    sketched = svd_decompose(DenseOperator(matrix))
    with mock.patch.object(operators, "_sketch", lambda *args: None):
        direct = svd_decompose(DenseOperator(matrix))
    return matrix, sketched, direct


@pytest.fixture(scope="module")
def routes():
    return functools.cache(_routes)


@pytest.mark.parametrize("name", CASES)
def test_block_is_taken(name):
    matrix = CASES[name]()
    symmetric = np.array_equal(matrix, matrix.T)
    assert symmetric == (not name.startswith("low_rank"))
    assert operators._sketch(matrix, symmetric) is not None


@pytest.mark.parametrize("name", CASES)
def test_block_matches_the_whole_matrix_factorization(routes, name):
    matrix, sketched, direct = routes(name)
    scale = direct.singular_values[0]
    assert sketched.rank == direct.rank < _SKETCH_WIDTH
    assert np.abs(sketched.singular_values - direct.singular_values).max() <= 1e-14 * scale
    errors = [np.abs(d.reconstruct() - matrix).max() for d in (sketched, direct)]
    assert errors[0] <= errors[1] + 1e-14 * scale
    for vectors in (sketched.left_vectors, sketched.right_vectors):
        assert np.abs(vectors.T @ vectors - np.eye(sketched.rank)).max() <= 1e-13


@pytest.mark.parametrize("name", CASES)
def test_selections_agree_with_the_whole_matrix_factorization(routes, name):
    matrix, sketched, direct = routes(name)
    f = matrix @ np.ones(matrix.shape[1])
    direction = philox(43).standard_normal(f.shape[0])
    for level in 10.0 ** -np.arange(1, 9):
        delta = level * np.linalg.norm(f)
        f_delta = f + delta * direction / np.linalg.norm(direction)
        u, want = (regularized_solve_auto(d, f_delta, delta)[0].u for d in (sketched, direct))
        assert np.linalg.norm(u - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("name", CASES)
def test_block_is_reproducible(routes, name):
    matrix, sketched, _ = routes(name)
    again = svd_decompose(DenseOperator(matrix))
    for field in ("singular_values", "left_vectors", "right_vectors"):
        np.testing.assert_array_equal(getattr(again, field), getattr(sketched, field))


def test_a_rank_past_the_block_is_factored_whole():
    # 28 values of 1, then 10^-11.9 down to 10^-13: 49 lie above the cut.
    # The block's smallest Ritz value is below it (9.8e-13), but its probe
    # bound (6.9e-11) and two kept Ritz residuals (up to 2.1e-13) miss
    # n eps = 5.7e-14.
    n = 256
    x = np.linalg.qr(philox(53).standard_normal((n, n)))[0]
    b = (x * np.concatenate([np.ones(28), np.logspace(-11.9, -13.0, n - 28)])) @ x.T
    matrix = (b + b.T) / 2.0
    assert operators._sketch(matrix, True) is None
    assert svd_decompose(DenseOperator(matrix)).rank == 49


def _indefinite_tail(blind, tail=5.0):
    """A symmetric 256 x 256 matrix: 20 dominant eigenvalues, then 100 of +-``tail`` n eps sigma_1.

    The block's 12 spare columns cannot span the tail, and its Ritz values
    there mix both signs, so the smallest cancels below the limit n eps
    sigma_1 and the first check passes.  ``blind`` puts the tail, and all
    but the 10 smallest dominant values, orthogonal to ``_sketch``'s probes,
    drawn after its block from the same fixed seed.
    """
    n = 256
    start = philox(71).standard_normal((n, n))
    if blind:
        draws = np.random.default_rng(np.random.Philox(operators._POWER_START_SEED))
        draws.standard_normal((n, _SKETCH_WIDTH))
        start[:, :10] = draws.standard_normal((n, operators._SKETCH_PROBES))
    v = np.linalg.qr(start)[0]
    lam = np.zeros(n)
    lam[:20] = np.concatenate([1e-2 * 0.5 ** np.arange(10), 0.5 ** np.arange(10)])
    lam[20:120] = tail * n * np.finfo(float).eps * (-1.0) ** np.arange(100)
    b = (v * lam) @ v.T
    return (b + b.T) / 2.0


@pytest.mark.parametrize("blind, refusal", [(False, "probes"), (True, "residuals")])
def test_a_tail_the_block_misses_is_refused(monkeypatch, blind, refusal):
    # Past the Ritz-value check, the probes see the tail; probes blind to it
    # pass, and the kept tail pairs' residuals, ~5 times the limit, refuse.
    matrix = _indefinite_tail(blind)
    factor, signed = operators._factor, operators._signed
    ritz, residuals = [], []
    monkeypatch.setattr(operators, "_factor", lambda *args: ritz.append(factor(*args)) or ritz[-1])
    monkeypatch.setattr(operators, "_signed", lambda *args: residuals.append(1) or signed(*args))
    assert operators._sketch(matrix, True) is None
    s = ritz[0][0]
    assert s.size == _SKETCH_WIDTH and s[-1] <= matrix.shape[0] * np.finfo(float).eps * s[0]
    assert bool(residuals) == (refusal == "residuals")
    monkeypatch.undo()
    want = operators._factor(matrix, True)[0]
    np.testing.assert_array_equal(DenseOperator(matrix)._system.singular_values, want)


def test_a_tail_orthogonal_to_the_probes_can_be_left_out():
    # At +-1.5 times the limit every tail Ritz value cancels below it, so no
    # tail pair is kept for the residual check, and the probes are blind to
    # the tail: the block passes with the 100 tail values, all above the
    # limit, left out.  What holds is what the checks test: each kept pair
    # is a singular pair to within the limit, and its value exceeds it.
    matrix = _indefinite_tail(True, tail=1.5)
    n = matrix.shape[0]
    s, pick = operators._sketch(matrix, True)
    limit = n * np.finfo(float).eps * s[0]
    exact = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
    assert np.count_nonzero(exact > limit) == 120
    assert s.size == 20 and np.all(s > limit)
    left, right, signs = pick(np.ones(s.size, dtype=bool))
    assert np.linalg.norm(matrix @ right - left * (signs * s), axis=0).max() <= limit
    assert np.abs(s - exact[:20]).max() <= limit
    assert DenseOperator(matrix)._system.rank == 20
