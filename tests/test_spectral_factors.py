"""Products with the singular factors of a decomposition.

A diagonal decomposition holds its kept indices instead of dense 0/1
axes, and a decomposition whose left vectors span the range skips the
complement product.  Both must give the same bits as the dense formulas.
"""

import math
import tracemalloc

import numpy as np
import pytest

from regkit import (
    DEFAULT_RANK_TOLERANCE,
    DenseOperator,
    SpectralDecomposition,
    add_noise,
    diagonal_decomposition,
    make_problem,
    minimal_norm_solution,
    regularized_solve_auto,
    solve_spectral,
    svd_decompose,
)
from regkit.operators import _Projection

from conftest import philox

VALUES = {
    "ties_and_zeros": [2.0, 0.5, 0.0, 2.0, 1.0, 0.5, 0.0, 3.0],
    "full_rank": [0.25, 4.0, 1.0, 1.0, 2.0],
    "truncated_tail": [1.0, 1e-14, 0.3, 1e-13, 0.3],
    "all_zero": [0.0, 0.0, 0.0],
}
ALPHAS = (1e-8, 1e-2, 1.0, 1e3)


def _dense_axes_reference(values):
    """The decomposition of diag(values) with explicit axes from np.eye."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    kept = [i for i in order if values[i] > DEFAULT_RANK_TOLERANCE * values[order[0]]]
    axes = np.eye(values.size)[:, kept]
    return SpectralDecomposition(values[kept], axes, axes, DEFAULT_RANK_TOLERANCE)


def _data(size, seed):
    """Signed data with exact zeros in it."""
    f = philox(seed).standard_normal(size)
    f[::3] = 0.0
    return f


@pytest.mark.parametrize("case", sorted(VALUES))
def test_diagonal_decomposition_matches_dense_axes(case):
    decomp = diagonal_decomposition(VALUES[case])
    ref = _dense_axes_reference(VALUES[case])
    n = ref.range_dim
    f, x = _data(n, 1), _data(n, 2)
    assert (decomp.rank, decomp.range_dim, decomp.domain_dim) == (ref.rank, n, n)
    np.testing.assert_array_equal(decomp.singular_values, ref.singular_values)
    np.testing.assert_array_equal(decomp.reconstruct(), ref.reconstruct())
    np.testing.assert_array_equal(decomp.range_coefficients(f), ref.range_coefficients(f))
    np.testing.assert_array_equal(decomp.project_range(f), ref.project_range(f))
    np.testing.assert_array_equal(
        decomp.project_domain_complement(x), ref.project_domain_complement(x)
    )
    in_range = ref.project_range(f)
    np.testing.assert_array_equal(
        minimal_norm_solution(decomp, in_range), minimal_norm_solution(ref, in_range)
    )
    projection, ref_projection = decomp._project(f), ref._project(f)
    np.testing.assert_array_equal(projection.coeff, ref_projection.coeff)
    assert projection.outside_sq == ref_projection.outside_sq
    for alpha in ALPHAS:
        assert projection.discrepancy(alpha) == ref_projection.discrepancy(alpha)
        np.testing.assert_array_equal(
            projection.solution(alpha), ref_projection.solution(alpha)
        )
        solution, ref_solution = solve_spectral(decomp, f, alpha), solve_spectral(ref, f, alpha)
        np.testing.assert_array_equal(solution.u, ref_solution.u)
        assert solution.residual_norm == ref_solution.residual_norm
    # The dense vectors are still there for a caller who reads them.
    np.testing.assert_array_equal(decomp.left_vectors, ref.left_vectors)
    np.testing.assert_array_equal(decomp.right_vectors, ref.right_vectors)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_diagonal_problem_keeps_no_dense_axes(p):
    # At n = 4096 the dense (n, rank) axes take 134 MB at p = 2 (full rank)
    # and 32 MB at p = 4, whose rank-deficient branch projects y.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prob = make_problem("diagonal", 4096, p=p)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    data = prob.y.nbytes + prob.f.nbytes + prob.op.values.nbytes
    assert retained - data < 2**20


def test_truncated_diagonal_problem_solution_matches_dense_axes():
    prob = make_problem("diagonal", 64, p=8.0)
    ref = _dense_axes_reference(prob.op.values)
    assert diagonal_decomposition(prob.op.values).rank == ref.rank < 64
    y = 1.0 / np.arange(1, 65, dtype=float)
    np.testing.assert_array_equal(prob.y, ref.right_vectors @ (ref.right_vectors.T @ y))


class _ComplementFormula(SpectralDecomposition):
    """``decomp`` through its own products, but always computing ||f - U U^T f||^2."""

    def __init__(self, decomp):
        vars(self).update(
            singular_values=decomp.singular_values,
            rank_tolerance=decomp.rank_tolerance,
            _decomp=decomp,
        )

    @property
    def range_dim(self):
        return self._decomp.range_dim

    def _project(self, f, cfg=None):
        d = self._decomp
        # The power of two that puts ||f|| in [1, 2), the unit every projection divides by.
        unit = 2.0 ** (math.frexp(np.linalg.norm(f))[1] - 1)
        f = f / unit
        coeff = d._left_t(f)
        outside = f - d._left(coeff)
        return _Projection(self.singular_values, coeff, outside @ outside, d._right, unit)


@pytest.mark.parametrize("name", ["deriv2", "phillips", "gradient_family"])
def test_full_range_selection_matches_complement_formula(name):
    prob = make_problem(name, 256)
    decomp = prob.decomp
    assert decomp.rank == decomp.range_dim
    ref = _ComplementFormula(decomp)
    # The complement formula adds rounding residue of order (eps ||f||)^2.
    # Over the benchmark's noise range, 1e-5 to 1e-1 of ||f||, that is far
    # below half an ulp of every g(alpha) the search reads; at ~1e-7 of
    # ||f|| it can move the achieved residual by an ulp.
    for seed, rel in enumerate([1e-1, 1e-2, 1e-3, 1e-4, 1e-5]):
        noisy = add_noise(prob, rel * np.linalg.norm(prob.f), seed)
        assert decomp._project(noisy.f_delta).outside_sq == 0.0
        solution, selection = regularized_solve_auto(decomp, noisy.f_delta, noisy.delta)
        ref_solution, ref_selection = regularized_solve_auto(ref, noisy.f_delta, noisy.delta)
        assert selection == ref_selection
        np.testing.assert_array_equal(solution.u, ref_solution.u)
        assert solution.residual_norm == ref_solution.residual_norm


def test_decompositions_compare_by_identity():
    # The generated __eq__ compared the arrays and raised ValueError.
    a = diagonal_decomposition([3.0, 1.0, 2.0])
    b = svd_decompose(DenseOperator(np.diag([3.0, 1.0, 2.0])))
    assert a == a and b == b
    assert not a == b
    assert a != diagonal_decomposition([3.0, 1.0, 2.0])


def test_repr_of_diagonal_problem_builds_no_axes():
    prob = make_problem("diagonal", 4096)
    tracemalloc.start()
    try:
        text = repr(prob) + repr(prob.decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "_AxesDecomposition(singular_values=" in text
    assert "left_vectors" not in text
    assert peak < 2**20
