"""One singular system per catalog problem: ``problem.decomp`` is ``problem.op._system``.

Theorem 1 bounds every filter factor by 1 / (2 sqrt(alpha)), so a
Tikhonov solve drops no sigma > 0; the problem's system is the operator's
own, factored once, and truncation is left to alpha = 0.
"""

import numpy as np
import pytest

from regkit import (
    DEFAULT_RANK_TOLERANCE,
    PROBLEM_NAMES,
    add_noise,
    make_problem,
    minimal_norm_solution,
    regularized_solve_auto,
    solution_operator_norm,
)
from regkit.operators import _SKETCH_WIDTH, _kept

from conftest import matrix_free_view


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_problem_system_is_the_operators(name):
    prob = make_problem(name, 64)
    assert prob.decomp is prob.op._system


def _factorizations(monkeypatch):
    calls = []
    for name in ("eigh", "svd"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.mark.parametrize(
    "name, n, factored",
    [("hilbert", 1024, [(_SKETCH_WIDTH, _SKETCH_WIDTH)]), ("phillips", 129, [(65, 65), (64, 64)])],
)
def test_set_up_and_selection_factor_once(monkeypatch, name, n, factored):
    # hilbert's system comes from the random block; odd-n phillips is
    # reflection-symmetric bit for bit, its even block taking the middle.
    calls = _factorizations(monkeypatch)
    prob = make_problem(name, n)
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), 1)
    regularized_solve_auto(prob.op, noisy.f_delta, noisy.delta)
    solution_operator_norm(prob.op, 1e-6)
    assert calls == [("eigh", shape) for shape in factored]


@pytest.mark.parametrize(
    "name, n",
    [
        ("hilbert", 256),
        ("hilbert", 1024),
        ("phillips", 129),
        ("phillips", 1024),
        ("diagonal", 1024),
        ("deriv2", 1024),
        ("gradient_family", 256),
    ],
)
def test_selection_agrees_with_the_matrix_free_route(name, n):
    prob = make_problem(name, n)
    free = matrix_free_view(prob.op)
    norm_f = np.linalg.norm(prob.f)
    for level in 10.0 ** -np.arange(1, 9):
        noisy = add_noise(prob, level * norm_f, 1)
        u, want = (
            regularized_solve_auto(system, noisy.f_delta, noisy.delta)[0].u
            for system in (prob.decomp, free)
        )
        assert np.linalg.norm(u - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_minimal_norm_solution_reads_the_system_at_the_default_tolerance(name):
    # The untruncated system has tolerance 0, and the range test at limit 0
    # failed on rounding: "null-space component of norm 9.714e-15 (limit 0)".
    prob = make_problem(name, 64)
    y = minimal_norm_solution(prob.decomp, prob.f)
    norm_f = np.linalg.norm(prob.f)
    assert np.linalg.norm(prob.op.apply(y) - prob.f) <= 1e-10 * norm_f
    removed = ~_kept(prob.decomp.singular_values, DEFAULT_RANK_TOLERANCE)
    assert removed.any() == (name == "hilbert")
    coordinates = prob.decomp._right_t(y)[removed]
    assert np.abs(coordinates).max(initial=0.0) <= 1e-12 * np.linalg.norm(y)
