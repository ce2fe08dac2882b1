"""Residual matching on random operators: every system kind, one answer.

Operators are drawn with chosen shapes, ranks and singular values, so the
exact minimal-norm solution y is known.  Each kind must meet the
residual certificate |A u - f_delta| = C delta and the norm bound
||u|| <= ||y||, and the three kinds must return the same u.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from regkit import (
    DenseOperator,
    DiagonalOperator,
    NoRootBelowError,
    diagonal_decomposition,
    regularized_solve_auto,
    solution_operator_norm,
    svd_decompose,
    solve_alpha,
)
from regkit import discrepancy
from regkit.operators import _Projection

from conftest import matrix_free_view, philox

C = 1.5


@st.composite
def noisy_systems(draw):
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rank = draw(st.integers(1, min(m, n)))
    log_sigma = draw(st.lists(st.floats(-8.0, 0.0), min_size=rank, max_size=rank))
    sigma = 10.0 ** (draw(st.floats(0.0, 6.0)) + np.sort(log_sigma)[::-1])
    rel_noise = 10.0 ** draw(st.floats(-6.0, -1.0))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    left = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    matrix = (left * sigma) @ right.T
    return _noisy(rng, matrix, right, rel_noise)


def _noisy(rng, matrix, right, rel_noise):
    """The case (matrix, y, f_delta, delta) for a y in the span of ``right``."""
    y = right @ rng.standard_normal(right.shape[1])  # in the row space: minimal norm
    f = matrix @ y
    delta = rel_noise * float(np.linalg.norm(f))
    noise = rng.standard_normal(matrix.shape[0])
    return matrix, y, f + delta * noise / np.linalg.norm(noise), delta


@st.composite
def symmetric_indefinite_systems(draw):
    """Like ``noisy_systems``, for A = Q diag(+-sigma) Q^T exactly symmetric.

    Dense operators then factor by the symmetric eigensolver.
    """
    n = draw(st.integers(1, 40))
    rank = draw(st.integers(1, n))
    log_sigma = draw(st.lists(st.floats(-8.0, 0.0), min_size=rank, max_size=rank))
    sigma = 10.0 ** (draw(st.floats(0.0, 6.0)) + np.sort(log_sigma)[::-1])
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=rank, max_size=rank))
    rel_noise = 10.0 ** draw(st.floats(-6.0, -1.0))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    matrix = (basis * (sigma * signs)) @ basis.T
    return _noisy(rng, 0.5 * (matrix + matrix.T), basis, rel_noise)


def _parity_dim(dim, parity):
    """The dimension of the vectors of length dim with v[::-1] = parity v."""
    return (dim + 1) // 2 if parity > 0 else dim // 2


def _parity_vectors(rng, dim, k, parity):
    """k orthonormal vectors v of length dim with v[::-1] = parity v, to rounding."""
    z = rng.standard_normal((dim, k))
    return np.linalg.qr(z + parity * z[::-1])[0]


@st.composite
def reflection_symmetric_systems(draw):
    """Like ``noisy_systems``, for B + J B J or B - J B J, J the reversal.

    Then A[::-1, ::-1] == +-A entry for entry, and dense operators factor
    A as two half-size blocks.  B is built from singular vectors even or
    odd under reversal, even to even and odd to odd for the + sign, even
    to odd and odd to even for the - sign, so that A = 2B to rounding and
    its spectrum is the one drawn.  Square draws with the + sign may take
    B = Q diag(+-sigma) Q^T exactly symmetric; the blocks then factor by
    eigh.
    """
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    symmetric = sign > 0 and draw(st.booleans())
    if symmetric:
        m = n
    # (parity of the left vectors, parity of the right vectors) per block
    parities = ((1, 1), (-1, -1)) if sign > 0 else ((1, -1), (-1, 1))
    sizes = [min(_parity_dim(m, p), _parity_dim(n, q)) for p, q in parities]
    ranks = [draw(st.integers(0, size)) for size in sizes]
    assume(sum(ranks) > 0)
    log_sigma = draw(st.lists(st.floats(-8.0, 0.0), min_size=sum(ranks), max_size=sum(ranks)))
    sigma = 0.5 * 10.0 ** (draw(st.floats(0.0, 6.0)) + np.array(log_sigma))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(sigma), max_size=len(sigma)))
    rel_noise = 10.0 ** draw(st.floats(-6.0, -1.0))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    right = np.hstack([_parity_vectors(rng, n, k, q) for (_, q), k in zip(parities, ranks)])
    if symmetric:
        half = (right * (sigma * signs)) @ right.T
        half = 0.5 * (half + half.T)
    else:
        left = np.hstack([_parity_vectors(rng, m, k, p) for (p, _), k in zip(parities, ranks)])
        half = (left * sigma) @ right.T
    return _noisy(rng, half + sign * half[::-1, ::-1], right, rel_noise)


@st.composite
def noisy_diagonals(draw):
    """Like ``noisy_systems``, for A = diag(v) with v >= 0 and zeros allowed.

    The positive entries span up to 14 decades, past the default rank
    tolerance.
    """
    rank = draw(st.integers(1, 30))
    zeros = draw(st.integers(0, 10))
    log_sigma = draw(st.lists(st.floats(-14.0, 0.0), min_size=rank, max_size=rank))
    rel_noise = 10.0 ** draw(st.floats(-6.0, -1.0))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    values = 10.0 ** (draw(st.floats(0.0, 6.0)) + np.array(log_sigma))
    values = rng.permutation(np.concatenate([values, np.zeros(zeros)]))
    right = np.eye(values.size)[:, values > 0]
    return _noisy(rng, np.diag(values), right, rel_noise)


def _assert_kinds_agree(case):
    matrix, y, f_delta, delta = case
    dense = DenseOperator(matrix)
    target = C * delta
    solutions = []
    for system in (svd_decompose(dense), dense, matrix_free_view(dense)):
        solution, selection = regularized_solve_auto(system, f_delta, delta)
        assert abs(selection.achieved_residual - target) <= 1e-8 * target
        assert abs(solution.residual_norm - target) <= 1e-8 * target
        assert solution.solution_norm <= np.linalg.norm(y) * (1 + 1e-10)
        solutions.append(solution.u)
    spectral = solutions[0]
    for u in solutions[1:]:
        assert np.linalg.norm(u - spectral) <= 1e-8 * np.linalg.norm(spectral)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(noisy_systems())
def test_selection_agrees_across_kinds(case):
    _assert_kinds_agree(case)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(symmetric_indefinite_systems())
def test_selection_agrees_across_kinds_on_symmetric_indefinite(case):
    assert np.array_equal(case[0], case[0].T)
    _assert_kinds_agree(case)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(reflection_symmetric_systems())
def test_selection_agrees_across_kinds_on_reflection_symmetric(case):
    matrix = case[0]
    flipped = matrix[::-1, ::-1]
    assert np.array_equal(flipped, matrix) or np.array_equal(flipped, -matrix)
    _assert_kinds_agree(case)


# The reference keeps every entry above zero, as the operators' own
# systems do: the default-truncated decomposition drops entries below
# 1e-12 of the largest, which moves u past 1e-8.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(noisy_diagonals())
def test_diagonal_selection_agrees_across_kinds(case):
    matrix, _, f_delta, delta = case
    values = np.diag(matrix)
    dense = DenseOperator(matrix)
    systems = (
        diagonal_decomposition(values, 0.0),
        DiagonalOperator(values),
        dense,
        matrix_free_view(dense),
    )
    solutions = [regularized_solve_auto(s, f_delta, delta)[0].u for s in systems]
    for u in solutions[1:]:
        assert np.linalg.norm(u - solutions[0]) <= 1e-8 * np.linalg.norm(solutions[0])


# 60 diagonals of 30 entries spread over 14 decades, at relative noise 1e-8
# to 1e-3.  An operator that truncates its spectrum at 1e-12 of the largest
# entry drops axes that the Golub-Kahan space of its matrix-free view keeps,
# which moves u past 1e-8 on about a third of these draws.
def test_diagonal_operators_select_as_their_matrix_free_view():
    rng = np.random.default_rng(5)
    for _ in range(60):
        values = 10.0 ** rng.uniform(-14.0, 0.0, 30)
        f = values * rng.standard_normal(30)
        noise = rng.standard_normal(30)
        delta = 10.0 ** rng.uniform(-8.0, -3.0) * np.linalg.norm(f)
        f_delta = f + delta * noise / np.linalg.norm(noise)
        diagonal = DiagonalOperator(values)
        reference = regularized_solve_auto(matrix_free_view(diagonal), f_delta, delta)[0].u
        for system in (diagonal, DenseOperator(np.diag(values))):
            u = regularized_solve_auto(system, f_delta, delta)[0].u
            assert np.linalg.norm(u - reference) <= 1e-8 * np.linalg.norm(reference)


# Past the default rank tolerance, so that an operator which truncates its
# own spectrum there misses the entry that attains the norm at alpha = v_min^2.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(noisy_diagonals())
def test_diagonal_solution_map_norm_agrees_across_kinds(case):
    values = np.diag(case[0])
    smallest = values[values > 0].min()
    for alpha in (smallest**2, smallest * values.max(), values.max() ** 2):
        want = solution_operator_norm(DiagonalOperator(values), alpha)
        got = solution_operator_norm(DenseOperator(case[0]), alpha)
        assert abs(got - want) <= 1e-12 * want



def _evaluations(decomp, f_delta, delta):
    """solve_alpha's selection and every g it evaluated, in order, in the data's units.

    The search sees the data divided by a power of two, its ``unit``, so
    each g is multiplied back by unit^2, which is exact.
    """
    evaluated, units = [], []
    discrepancy_at, root = _Projection.discrepancy, discrepancy._root

    def counted(self, alpha):
        g = discrepancy_at(self, alpha)
        evaluated.append(g[0])
        return g

    def rooted(projection, threshold, cfg, start=None, unit=1.0):
        units.append(unit)
        return root(projection, threshold, cfg, start, unit)

    with mock.patch.object(_Projection, "discrepancy", counted):
        with mock.patch.object(discrepancy, "_root", rooted):
            selection = solve_alpha(decomp, f_delta, delta)
    return selection, [g * units[0] ** 2 for g in evaluated]


# phi(beta) = (g(1/beta) - g(0+))^(-1/2) is concave and increasing in
# beta = 1/alpha, so Newton on it from beta = 0 climbs to the root without
# crossing it: every g before the accepted one lies above the target.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(noisy_diagonals())
def test_diagonal_root_search_climbs_to_the_root(case):
    matrix, _, f_delta, delta = case
    selection, evaluated = _evaluations(diagonal_decomposition(np.diag(matrix)), f_delta, delta)
    assert len(evaluated) == selection.iterations <= 12
    assert all(g > (C * delta) ** 2 for g in evaluated[:-1])


# A stated noise level up to a thousandfold too small puts the data outside
# the kept entries above C delta on about half the draws.  g(0+) decides
# that before any g is evaluated; otherwise the climb is as above, though a
# root on a plateau of g near the smallest entries can take more steps.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(noisy_diagonals(), st.floats(-3.0, 0.0))
def test_diagonal_no_root_below_exactly_when_g_at_zero_reaches_the_target(case, understate):
    matrix, _, f_delta, delta = case
    delta *= 10.0**understate
    decomp = diagonal_decomposition(np.diag(matrix))
    target = (C * delta) ** 2
    outside = f_delta - decomp.project_range(f_delta)
    if outside @ outside >= target:
        unevaluated = mock.patch.object(_Projection, "discrepancy", side_effect=AssertionError)
        with unevaluated, pytest.raises(NoRootBelowError):
            solve_alpha(decomp, f_delta, delta)
        return
    selection, evaluated = _evaluations(decomp, f_delta, delta)
    assert len(evaluated) == selection.iterations
    assert all(g > target for g in evaluated[:-1])
