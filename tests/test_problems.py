import json
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

from regkit import (
    DenseOperator,
    DiagonalOperator,
    InvalidParameterError,
    PROBLEM_NAMES,
    ToeplitzOperator,
    UnknownProblemError,
    add_noise,
    diagonal_decomposition,
    discrepancy_value,
    export_problem,
    make_problem,
    problem_descriptor,
    read_dense_text,
    solve_alpha,
    solve_dual,
    solve_primal,
    solve_spectral,
    svd_decompose,
)


ALL_SIZES = (4, 8, 16, 32, 64, 128, 256)


# --- catalog constructions -------------------------------------------------------

def test_diagonal_closed_form_p1():
    prob = make_problem("diagonal", 3, p=1.0)
    np.testing.assert_allclose(prob.op.values, [1.0, 0.5, 1.0 / 3.0])
    np.testing.assert_allclose(prob.y, [1.0, 0.5, 1.0 / 3.0])
    np.testing.assert_allclose(prob.f, [1.0, 0.25, 1.0 / 9.0])


def test_diagonal_default_decay():
    prob = make_problem("diagonal", 4)
    np.testing.assert_allclose(prob.op.values, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])
    assert prob.params == {"p": 2.0}


def test_hilbert_two_by_two():
    prob = make_problem("hilbert", 2)
    np.testing.assert_allclose(
        prob.op.matrix, [[1.0, 0.5], [0.5, 1.0 / 3.0]]
    )
    np.testing.assert_allclose(prob.f, [1.5, 5.0 / 6.0])


@pytest.mark.parametrize("n", [2, 5, 64, 300])
def test_hilbert_matches_scipy_exactly(n):
    from scipy.linalg import hilbert

    prob = make_problem("hilbert", n, decompose=False)
    np.testing.assert_array_equal(prob.op.matrix, hilbert(n))


def test_gradient_family_norm_growth():
    # sigma_1 = 2 n sin((n-1) pi / (2n)), roughly 2n.
    norms = {}
    for n in (4, 64):
        prob = make_problem("gradient_family", n)
        norms[n] = prob.decomp.singular_values[0]
        analytic = 2.0 * n * np.sin((n - 1) * np.pi / (2.0 * n))
        assert norms[n] == pytest.approx(analytic, rel=1e-10)
    assert norms[64] / norms[4] > 10.0


def test_gradient_family_null_space_is_constants():
    prob = make_problem("gradient_family", 16)
    assert prob.decomp.rank == 15
    ones = np.ones(16) / 4.0
    in_row_space = prob.decomp.right_vectors @ (prob.decomp.right_vectors.T @ ones)
    assert np.linalg.norm(in_row_space) <= 1e-10


def test_gradient_family_solution_map_bound_uniform_in_n():
    # Operator norms grow without bound along the doubling sequence, yet
    # the data-to-solution map stays below 1/(2 sqrt(alpha)) at fixed alpha.
    from regkit import solution_operator_norm

    previous_norm = 0.0
    for n in (4, 8, 16, 32, 64):
        prob = make_problem("gradient_family", n)
        operator_norm = prob.decomp.singular_values[0]
        assert operator_norm > previous_norm
        previous_norm = operator_norm
        for alpha in (1e-4, 1e-2, 1.0):
            bound = 1.0 / (2.0 * np.sqrt(alpha))
            assert solution_operator_norm(prob.decomp, alpha) <= bound * (1 + 1e-12)


def _truncated(prob):
    """The system truncated at the default rank tolerance, as for the minimal-norm y."""
    if isinstance(prob.op, (DenseOperator, ToeplitzOperator)):
        return svd_decompose(prob.op)
    if isinstance(prob.op, DiagonalOperator):
        return diagonal_decomposition(prob.op.values)
    return prob.decomp  # the closed forms keep every value, all far above the tolerance


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("n", ALL_SIZES)
def test_instance_invariants(name, n):
    prob = make_problem(name, n)
    norm_f = np.linalg.norm(prob.f)
    assert norm_f > 0
    assert np.linalg.norm(prob.op.apply(prob.y) - prob.f) <= 1e-12 * norm_f
    null_part = _truncated(prob).project_domain_complement(prob.y)
    assert np.linalg.norm(null_part) <= 1e-10 * np.linalg.norm(prob.y)


def test_decompose_flag_skips_decomposition():
    prob = make_problem("deriv2", 16, decompose=False)
    assert prob.decomp is None
    full = make_problem("deriv2", 16)
    np.testing.assert_array_equal(prob.f, full.f)


def test_unknown_problem_and_bad_sizes():
    with pytest.raises(UnknownProblemError):
        make_problem("mystery", 8)
    with pytest.raises(InvalidParameterError):
        make_problem("diagonal", 1)
    # No catalog size is capped: past MAX_DENSE_DIM hilbert has no system.
    assert make_problem("hilbert", 5000).decomp is None
    with pytest.raises(InvalidParameterError):
        make_problem("diagonal", 8, q=3)


# float("x") leaked ValueError past the guard, which caught TypeError alone.
@pytest.mark.parametrize("bad", ["x", None, [1.0, 2.0]], ids=["string", "none", "list"])
def test_diagonal_decay_must_be_a_number(bad):
    with pytest.raises(InvalidParameterError, match="p must be a real number"):
        make_problem("diagonal", 8, p=bad)


# --- noise --------------------------------------------------------------------------

def test_noise_magnitude_exact():
    prob = make_problem("phillips", 16)
    noisy = add_noise(prob, 0.1, 42)
    achieved = np.linalg.norm(noisy.f_delta - prob.f)
    # Stored level is the realized one: consistent to well under 1e-15.
    assert abs(achieved - noisy.delta) <= 1e-15 * noisy.delta
    # Requested level is met up to the FP grid of f (~ eps ||f|| / delta).
    assert abs(noisy.delta - 0.1) <= 1e-13 * 0.1


def test_noise_deterministic_and_seed_sensitive():
    prob = make_problem("deriv2", 8)
    first = add_noise(prob, 1e-2, 7)
    second = add_noise(prob, 1e-2, 7)
    other = add_noise(prob, 1e-2, 8)
    np.testing.assert_array_equal(first.f_delta, second.f_delta)
    assert np.linalg.norm(first.f_delta - other.f_delta) > 0


def test_noise_validation():
    prob = make_problem("deriv2", 8)
    with pytest.raises(InvalidParameterError):
        add_noise(prob, 0.0, 1)


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
def test_noise_level_must_be_a_number(bad):
    # None leaked TypeError and "x" ValueError from float().
    with pytest.raises(InvalidParameterError, match="delta"):
        add_noise(make_problem("deriv2", 8), bad, 0)


@pytest.mark.parametrize(
    "bad", [None, 3.7, -1, "x", "5", float("nan")], ids=["None", "fraction", "negative", "str", "digits", "nan"]
)
def test_noise_seed_must_be_a_nonnegative_integer(bad):
    # 3.7 silently became seed 3, None leaked TypeError, -1 and "x" ValueError.
    with pytest.raises(InvalidParameterError, match="seed"):
        add_noise(make_problem("deriv2", 8), 1e-2, bad)


def test_integral_seeds_are_taken_as_ints():
    prob = make_problem("deriv2", 8)
    for seed, want in ((0, 0), (5.0, 5), (np.int64(7), 7)):
        noisy = add_noise(prob, 1e-2, seed)
        assert type(noisy.seed) is int and noisy.seed == want
        np.testing.assert_array_equal(noisy.f_delta, add_noise(prob, 1e-2, want).f_delta)


@pytest.mark.parametrize("bad", [3.7, "x", None], ids=["fraction", "str", "None"])
def test_problem_size_must_be_an_integer(bad):
    # 3.7 silently built n = 3; "x" leaked ValueError and None TypeError.
    with pytest.raises(InvalidParameterError, match="n must be"):
        make_problem("hilbert", bad)


def test_integral_float_sizes_are_taken():
    np.testing.assert_array_equal(make_problem("hilbert", 5.0).f, make_problem("hilbert", 5).f)


# --- the diagonal problem doubles as the oracle ---------------------------------------

def test_diagonal_solves_match_analytic_sums():
    prob = make_problem("diagonal", 6)
    sigma = prob.op.values
    delta = 1e-2
    fd = add_noise(prob, delta, 3).f_delta
    for alpha in (1e-6, 1e-3, 1.0):
        expected_u = sigma * fd / (sigma**2 + alpha)
        for sol in (
            solve_primal(prob.op, fd, alpha),
            solve_dual(prob.op, fd, alpha),
            solve_spectral(prob.decomp, fd, alpha),
        ):
            assert np.linalg.norm(sol.u - expected_u) <= 1e-12 * np.linalg.norm(expected_u)
        expected_g = float(np.sum((alpha / (sigma**2 + alpha)) ** 2 * fd**2))
        got = discrepancy_value(prob.decomp, fd, alpha)
        assert abs(got - expected_g) <= 1e-12 * expected_g


def test_diagonal_alpha_selection_matches_analytic_root():
    prob = make_problem("diagonal", 6)
    delta = 1e-2
    fd = add_noise(prob, delta, 3).f_delta
    sigma = prob.op.values
    target = (1.5 * delta) ** 2
    oracle = 10.0 ** brentq(
        lambda t: float(np.sum((10.0**t / (sigma**2 + 10.0**t)) ** 2 * fd**2)) - target,
        -14.0,
        14.0,
        xtol=1e-13,
    )
    sel = solve_alpha(prob.decomp, fd, delta)
    assert sel.alpha == pytest.approx(oracle, rel=1e-8)


def test_hilbert_large_sizes_project_solution_into_row_space():
    # Numerically rank-deficient: the stored solution must be the
    # minimal-norm representative of the data it generates.
    prob = make_problem("hilbert", 64)
    truncated = svd_decompose(prob.op)
    assert truncated.rank < 64
    residual = np.linalg.norm(prob.op.apply(prob.y) - prob.f)
    assert residual <= 1e-12 * np.linalg.norm(prob.f)
    null_part = truncated.project_domain_complement(prob.y)
    assert np.linalg.norm(null_part) <= 1e-10 * np.linalg.norm(prob.y)


# --- export -----------------------------------------------------------------------------

def test_export_roundtrip(tmp_path):
    prob = make_problem("deriv2", 8)
    matrix_path = tmp_path / "deriv2_8.txt"
    json_path = tmp_path / "deriv2_8.json"
    export_problem(prob, matrix_path, json_path)
    back = read_dense_text(matrix_path)
    np.testing.assert_array_equal(back.matrix, prob.op.matrix)
    with open(json_path) as fh:
        desc = json.load(fh)
    assert desc["name"] == "deriv2"
    assert desc["n"] == 8
    assert desc["params"] == {}
    np.testing.assert_array_equal(np.asarray(desc["y"]), prob.y)
    np.testing.assert_array_equal(np.asarray(desc["f"]), prob.f)


def test_descriptor_matches_instance():
    prob = make_problem("diagonal", 4, p=1.5)
    desc = problem_descriptor(prob)
    assert desc["params"] == {"p": 1.5}
    assert len(desc["y"]) == 4


def test_exported_diagonal_matches_spectral_behaviour(tmp_path):
    # A diagonal instance exported as dense text must reproduce its solves.
    prob = make_problem("diagonal", 5)
    matrix_path = tmp_path / "diag.txt"
    export_problem(prob, matrix_path, tmp_path / "diag.json")
    dense = read_dense_text(matrix_path)
    sol_dense = solve_primal(dense, prob.f, 1e-3)
    sol_diag = solve_primal(prob.op, prob.f, 1e-3)
    np.testing.assert_allclose(sol_dense.u, sol_diag.u, rtol=1e-12)


def test_instances_and_noisy_data_compare_by_identity():
    # Generated field-wise equality compared arrays and raised on them.
    prob = make_problem("phillips", 8)
    first, second = add_noise(prob, 1e-3, 1), add_noise(prob, 1e-3, 1)
    assert (first == second) is False
    assert (first == first) is True
    assert (prob == make_problem("phillips", 8)) is False
    assert (prob == prob) is True


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [64, 129, 5000])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_every_problem_round_trips_through_pickle(name, n):
    prob = make_problem(name, n)
    copy = pickle.loads(pickle.dumps(prob))
    x = np.random.default_rng(np.random.Philox(n)).standard_normal(n)
    assert _same_bits(copy.y, prob.y) and _same_bits(copy.f, prob.f)
    assert _same_bits(copy.op.apply(x), prob.op.apply(x))
    assert _same_bits(copy.op.apply_adjoint(prob.f), prob.op.apply_adjoint(prob.f))
    assert _same_bits(copy.op._rows(0, 8), prob.op._rows(0, 8))
    if prob.decomp is None:
        assert copy.decomp is None
        return
    d, e = prob.decomp, copy.decomp
    c = d._left_t(prob.f)
    assert _same_bits(e.singular_values, d.singular_values)
    assert _same_bits(e._left_t(prob.f), c)
    assert _same_bits(e._right_t(x), d._right_t(x))
    assert _same_bits(e._left(c), d._left(c))
    assert _same_bits(e._right(c), d._right(c))


def test_add_noise_realizes_a_level_whose_square_overflows():
    # ||realized||^2 = 1e400 is past the largest float; the level is not.
    prob = make_problem("deriv2", 64)
    noisy = add_noise(prob, 1e200, 3)
    assert noisy.delta == pytest.approx(1e200, rel=1e-12)
    assert np.abs(noisy.f_delta).max() > 1e190
