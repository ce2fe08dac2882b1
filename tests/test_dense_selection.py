"""Selection on a symmetric dense matrix runs on a Golub-Kahan space.

A selection on a ``DenseOperator`` whose singular system is unbuilt and
whose matrix is exactly symmetric projects the data on a certified
Golub-Kahan space of at most max(32, n // 8) steps, and factors nothing.
Only a space that does not certify by then builds the system, and
selects on it; every later selection on the operator reads the system.
So k selections whose spaces certify cost k spaces and no factorization.
Any other matrix selects on its system at once, as before.
"""

import functools

import numpy as np
import pytest

from regkit import (
    DenseOperator,
    GradientOperator,
    add_noise,
    make_problem,
    regularized_solve_auto,
    solve_primal,
)
from regkit import operators
from regkit.operators import _KrylovProjection

from conftest import catalog_operator, philox

REL_NOISE = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]


def _refuse_factorizations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a fresh symmetric selection factored its matrix")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)


def _count_systems(monkeypatch):
    """The operators whose ``_system`` is built from now on, one entry per build."""
    built = []

    def system(op):
        built.append(op)
        return DenseOperator._decompose(op)

    prop = functools.cached_property(system)
    prop.__set_name__(DenseOperator, "_system")
    monkeypatch.setattr(DenseOperator, "_system", prop)
    return built


def _count_steps(monkeypatch):
    """A one-entry list holding the Golub-Kahan steps taken from now on."""
    steps = [0]
    step = _KrylovProjection._step

    def counted(self):
        steps[0] += 1
        return step(self)

    monkeypatch.setattr(_KrylovProjection, "_step", counted)
    return steps


def _factored(matrix):
    op = DenseOperator(matrix)
    op._system
    return op


@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize("name", ["deriv2", "hilbert", "phillips"])
def test_fresh_symmetric_selection_factors_nothing(monkeypatch, name, n):
    prob = make_problem(name, n)
    matrix = prob.op.matrix
    reference = _factored(matrix)
    _refuse_factorizations(monkeypatch)
    for k, rel in enumerate(REL_NOISE):
        noisy = add_noise(prob, rel * np.linalg.norm(prob.f), seed=k)
        solution, selection = regularized_solve_auto(
            DenseOperator(matrix), noisy.f_delta, noisy.delta
        )
        assert solution.path == "krylov"
        assert 0 < solution.iterations <= max(32, n // 8)
        assert abs(solution.residual_norm - 1.5 * noisy.delta) <= 1e-8 * 1.5 * noisy.delta
        want, _ = regularized_solve_auto(reference, noisy.f_delta, noisy.delta)
        assert want.path == "spectral"
        assert np.linalg.norm(solution.u - want.u) <= 1e-8 * np.linalg.norm(want.u)


@pytest.mark.parametrize("n", [128, 129])
def test_nonsymmetric_dense_selection_keeps_the_system_bits(monkeypatch, n):
    # gradient_family's matrix, and phillips' one ulp off symmetric.
    skewed = np.array(catalog_operator("phillips", n).matrix)
    skewed[0, 1] = np.nextafter(skewed[0, 1], np.inf)
    steps = _count_steps(monkeypatch)
    for matrix in (GradientOperator(n).matrix, skewed):
        y = np.sin(np.linspace(0.0, 3.0, n))
        f = matrix @ y
        for k, rel in enumerate(REL_NOISE):
            noise = philox(k).standard_normal(matrix.shape[0])
            delta = rel * np.linalg.norm(f)
            f_delta = f + delta / np.linalg.norm(noise) * noise
            solution, selection = regularized_solve_auto(DenseOperator(matrix), f_delta, delta)
            want, want_selection = regularized_solve_auto(_factored(matrix), f_delta, delta)
            assert (solution.path, solution.iterations) == ("spectral", 0)
            np.testing.assert_array_equal(solution.u, want.u)
            assert selection == want_selection
    assert steps[0] == 0


def _dtd(n):
    d = GradientOperator(n).matrix
    return d.T @ d


def _random_symmetric(n):
    s = philox(23).standard_normal((n, n))
    return s + s.T


@pytest.mark.parametrize("build", [_random_symmetric, _dtd], ids=["random", "dtd"])
def test_space_past_its_cap_factors_once(monkeypatch, build):
    # Neither spectrum lets a short space certify: the selection stops at
    # the cap, factors once and selects on the system from scratch, so its
    # bits are the system route's.
    n = 256
    matrix = build(n)
    reference = _factored(matrix)
    built, steps = _count_systems(monkeypatch), _count_steps(monkeypatch)
    y = np.cos(np.linspace(0.0, 2.0, n))
    f = matrix @ y
    for k, rel in enumerate([1e-2, 1e-3, 1e-4]):
        noise = philox(40 + k).standard_normal(n)
        delta = rel * np.linalg.norm(f)
        f_delta = f + delta / np.linalg.norm(noise) * noise
        op = DenseOperator(matrix)
        before = steps[0]
        solution, selection = regularized_solve_auto(op, f_delta, delta)
        assert steps[0] - before == max(32, n // 8)
        assert built[-1] is op and len(built) == k + 1
        want, want_selection = regularized_solve_auto(reference, f_delta, delta)
        assert (solution.path, solution.iterations) == ("spectral", 0)
        np.testing.assert_array_equal(solution.u, want.u)
        assert selection == want_selection


def test_three_selections_factor_nothing(monkeypatch):
    # Each selection whose space certifies leaves the system unbuilt, so the
    # next one takes a space too.
    prob = make_problem("phillips", 128)
    op = DenseOperator(prob.op.matrix)
    built, steps = _count_systems(monkeypatch), _count_steps(monkeypatch)
    for k, rel in enumerate([1e-2, 1e-3, 1e-4]):
        noisy = add_noise(prob, rel * np.linalg.norm(prob.f), seed=k)
        before = steps[0]
        solution, _ = regularized_solve_auto(op, noisy.f_delta, noisy.delta)
        assert solution.path == "krylov"
        assert 0 < steps[0] - before == solution.iterations
    assert built == []


def test_selections_after_a_failed_space_read_the_system(monkeypatch):
    # Only a space that fails builds the system; every later selection on
    # that operator reads it and grows no space.
    n = 256
    matrix = _random_symmetric(n)
    op = DenseOperator(matrix)
    built, steps = _count_systems(monkeypatch), _count_steps(monkeypatch)
    y = np.cos(np.linspace(0.0, 2.0, n))
    f = matrix @ y
    for k, rel in enumerate([1e-2, 1e-3, 1e-4]):
        noise = philox(40 + k).standard_normal(n)
        delta = rel * np.linalg.norm(f)
        solution, _ = regularized_solve_auto(op, f + delta / np.linalg.norm(noise) * noise, delta)
        assert (solution.path, solution.iterations) == ("spectral", 0)
        assert steps[0] == max(32, n // 8)
        assert built == [op]


def test_only_a_selection_checks_symmetry(monkeypatch):
    # Construction and fixed-alpha solves skip the O(n^2) comparison; the
    # first selection on the unfactored operator makes it, once.
    prob = make_problem("phillips", 128)
    checks = []
    is_symmetric = operators._is_symmetric
    monkeypatch.setattr(operators, "_is_symmetric", lambda m: checks.append(m) or is_symmetric(m))
    op = DenseOperator(prob.op.matrix)
    solve_primal(op, prob.f, 1e-3)
    assert checks == []
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), seed=0)
    for _ in range(2):
        solution, _ = regularized_solve_auto(op, noisy.f_delta, noisy.delta)
        assert solution.path == "krylov"
    assert len(checks) == 1


def test_operator_with_a_built_system_selects_on_it(monkeypatch):
    prob = make_problem("hilbert", 128)
    op = _factored(prob.op.matrix)
    built, steps = _count_systems(monkeypatch), _count_steps(monkeypatch)
    noisy = add_noise(prob, 1e-3 * np.linalg.norm(prob.f), seed=3)
    solution, _ = regularized_solve_auto(op, noisy.f_delta, noisy.delta)
    assert (solution.path, solution.iterations) == ("spectral", 0)
    assert built == [] and steps[0] == 0
