"""Residual matching on random operators: every system kind, one answer.

Operators are drawn with chosen shapes, ranks and singular values, so the
exact minimal-norm solution y is known.  Each kind must meet the
residual certificate |A u - f_delta| = C delta and the norm bound
||u|| <= ||y||, and the three kinds must return the same u.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from regkit import DenseOperator, regularized_solve_auto, svd_decompose

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
    y = right @ rng.standard_normal(rank)  # in the row space: minimal norm
    f = matrix @ y
    delta = rel_noise * float(np.linalg.norm(f))
    noise = rng.standard_normal(m)
    return matrix, y, f + delta * noise / np.linalg.norm(noise), delta


@settings(max_examples=300, derandomize=True, deadline=None)
@given(noisy_systems())
def test_selection_agrees_across_kinds(case):
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
