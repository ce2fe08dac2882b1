"""The Golub-Kahan projection of matrix-free alpha selection.

Reorthogonalization on demand and by the DGKS test, the damped-LSQR
monitor that sizes the Krylov space, the doubling that remains for the
cases the monitor cannot size, the per-alpha Givens sweep that replaces a
factorization of B_k, and the null-vector floor g(0+) that skips root
searches on spaces without a root.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from regkit import (
    DenseOperator,
    GradientOperator,
    IterativeSolverConfig,
    MatrixFreeOperator,
    add_noise,
    make_problem,
    solve_dual,
    solve_primal,
    solve_spectral,
    svd_decompose,
)
from regkit import discrepancy, operators
from regkit.discrepancy import DiscrepancyConfig, _select
from regkit.operators import _KrylovProjection

from conftest import gradient_callbacks, matrix_free_view, philox

C = 1.5


def _noisy(prob, rel_noise, seed):
    delta = rel_noise * float(np.linalg.norm(prob.f))
    return add_noise(prob, delta, seed).f_delta, delta


def _bases(projection):
    """The stored rows of U and V: one for each nonzero beta and alpha."""
    u = projection._u[: np.count_nonzero(projection._beta)]
    v = projection._v[: np.count_nonzero(projection._alpha)]
    return u, v


def _orthonormality(rows):
    return float(np.abs(rows @ rows.T - np.eye(rows.shape[0])).max())


@pytest.fixture
def factor_sizes(monkeypatch):
    """The Krylov dimension k of every factorization of B_k, in order."""
    sizes = []
    factor = _KrylovProjection._factor

    def counted(self):
        sizes.append(self.steps)
        factor(self)

    monkeypatch.setattr(_KrylovProjection, "_factor", counted)
    return sizes


def _exact_damped(projection, alpha):
    """g, dg/d(ln alpha), s_{k+1} and y of the damped projected problem, exactly.

    Solves (B_k^T B_k + alpha I) y = B_k^T beta_1 e_1, which is tridiagonal,
    in rational arithmetic on the stored floats, then rounds once.
    """
    k = projection.steps
    diag = [Fraction(v) for v in projection._alpha[:k]]
    sub = [Fraction(v) for v in projection._beta[1 : k + 1]]
    a, beta_1 = Fraction(alpha), Fraction(projection._beta[0])
    # B^T B + alpha I: diagonal alpha_j^2 + beta_{j+1}^2 + alpha, off-diagonal
    # beta_{j+1} alpha_{j+1}.
    main = [diag[j] ** 2 + sub[j] ** 2 + a for j in range(k)]
    off = [sub[j] * diag[j + 1] for j in range(k - 1)]

    def solve(rhs):
        d, r = main[:], rhs[:]
        for j in range(1, k):
            m = off[j - 1] / d[j - 1]
            d[j] -= m * off[j - 1]
            r[j] -= m * r[j - 1]
        x = [Fraction(0)] * k
        for j in range(k - 1, -1, -1):
            x[j] = (r[j] - (off[j] * x[j + 1] if j < k - 1 else 0)) / d[j]
        return x

    y = solve([diag[0] * beta_1] + [Fraction(0)] * (k - 1))
    r = [beta_1 - diag[0] * y[0]] + [
        -sub[j] * y[j] - (diag[j + 1] * y[j + 1] if j < k - 1 else 0) for j in range(k)
    ]
    w = solve(y)
    g = sum(v * v for v in r)
    slope = 2 * a * a * sum(u * v for u, v in zip(y, w))
    return float(g), float(slope), float(r[k]), np.array([float(v) for v in y])


def test_second_pass_restores_orthogonality_under_cancellation():
    # vec = Q^T c + 1e-6 e: one classical pass leaves an error of order
    # eps * ||c|| / 1e-6 against Q, about 1e-10 after normalizing.
    rng = philox(8)
    n, count = 64, 6
    q = np.linalg.qr(rng.standard_normal((n, count)))[0].T
    rows = np.empty((count + 2, n))
    rows[:count] = q
    e = rng.standard_normal(n)
    e -= (q @ e) @ q
    e /= np.linalg.norm(e)
    vec = rng.standard_normal(count) @ q + 1e-6 * e
    # A space of R^1, exhausted at once, with no Gram-Schmidt of its own;
    # a carried bound of 1.0 then forces the subtraction.
    projection = _KrylovProjection(DenseOperator(np.eye(1)), np.ones(1), IterativeSolverConfig())
    rows, norm, _ = projection._append(rows, count, vec, 1.0)
    assert norm == pytest.approx(1e-6, rel=1e-6)
    assert np.abs(q @ rows[count]).max() <= 1e-14
    assert projection.subtractions == 1


def test_lsqr_monitor_matches_projected_problem():
    # Oracle: the damped projected problem min ||B_k y - beta_1 e_1||^2 +
    # alpha ||y||^2 solved densely; its residual's last entry is s_{k+1}.
    # The monitor's residual alpha_{k+1} |s_k phi_k| and ||x_k|| come from
    # the rotations that ``_sweep`` reads, so both must match the oracle.
    prob = make_problem("deriv2", 128)
    fd, _ = _noisy(prob, 1e-2, 4)
    projection = _KrylovProjection(matrix_free_view(prob.op), fd, IterativeSolverConfig())
    k = projection.steps
    b = np.zeros((k + 1, k))
    b[np.arange(k), np.arange(k)] = projection._alpha[:k]
    b[np.arange(1, k + 1), np.arange(k)] = projection._beta[1:]
    rhs = np.zeros(k + 1)
    rhs[0] = projection._beta[0]
    for alpha in (1e-9, 1e-6, 1e-3):
        y = np.linalg.solve(b.T @ b + alpha * np.eye(k), b.T @ rhs)
        s_last = (rhs - b @ y)[k]
        monitored = list(projection._monitor(alpha))  # one per stored column
        assert len(monitored) == k
        residual, xnorm = monitored[-1]
        assert residual == pytest.approx(abs(projection._alpha[k] * s_last), rel=1e-8)
        assert xnorm == pytest.approx(np.linalg.norm(y), rel=1e-8)


@pytest.mark.parametrize("name, rel_noise", [("gradient_family", 1e-2), ("deriv2", 1e-3)])
def test_bases_stay_orthonormal(name, rel_noise):
    prob = make_problem(name, 256)
    system = gradient_callbacks(256) if name == "gradient_family" else matrix_free_view(prob.op)
    fd, delta = _noisy(prob, rel_noise, 2)
    _, projection, _ = _select(system, fd, delta, DiscrepancyConfig(C=C), None)
    assert projection.exhausted == (name == "gradient_family")
    for rows in _bases(projection):
        assert _orthonormality(rows) <= 1e-13


def test_gram_schmidt_runs_on_demand():
    # The space is exhausted at k = 255: 511 vectors, 510 of them with a
    # basis before them.  Full reorthogonalization forms a product with the
    # basis for each of the 510 and subtracts it, 510 and 510.
    prob = make_problem("gradient_family", 256)
    fd, delta = _noisy(prob, 1e-2, 1)
    counts = []
    for _ in range(2):
        _, projection, _ = _select(gradient_callbacks(256), fd, delta, DiscrepancyConfig(C=C), None)
        assert len(projection._alpha) + len(projection._beta) - 1 == 511
        counts.append((projection.steps, projection.products, projection.subtractions))
    assert counts == [(255, 273, 45)] * 2


def _clustered_diagonal():
    """Matrix-free diag(v): two clusters 1e-9 wide at 1 and 1e-3, and a tail to 1e-8."""
    rng = philox(21)
    values = np.concatenate([
        1.0 + 1e-9 * rng.random(100),
        1e-3 * (1.0 + 1e-9 * rng.random(100)),
        np.geomspace(1.0, 1e-8, 56),
    ])
    y = rng.standard_normal(values.size)
    f = values * y
    return MatrixFreeOperator(values.size, values.size, values.__mul__, values.__mul__), f, rng


@pytest.mark.parametrize("case", ["gradient_1024", "deriv2", "clustered_diagonal"])
def test_bases_stay_orthonormal_with_gram_schmidt_on_demand(case):
    if case == "gradient_1024":
        prob = make_problem("gradient_family", 1024)
        fds = [(gradient_callbacks(1024), *_noisy(prob, 1e-4, 6))]
    elif case == "deriv2":
        prob = make_problem("deriv2", 256)
        system = matrix_free_view(prob.op)
        fds = [(system, *_noisy(prob, rel, 3)) for rel in (1e-1, 1e-3, 1e-6)]
    else:
        system, f, rng = _clustered_diagonal()
        fds = []
        for rel in (1e-2, 1e-5, 1e-8):
            delta = rel * np.linalg.norm(f)
            fds.append((system, f + delta * rng.standard_normal(f.size) / np.sqrt(4 * f.size), delta))
    for system, fd, delta in fds:
        _, projection, _ = _select(system, fd, delta, DiscrepancyConfig(C=C), None)
        for rows in _bases(projection):
            assert _orthonormality(rows) <= 1e-13


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deriv2_space_is_sized_not_doubled(seed, factor_sizes):
    prob = make_problem("deriv2", 256)
    fd, delta = _noisy(prob, 1e-3, seed)
    selection, projection, unit = _select(
        matrix_free_view(prob.op), fd, delta, DiscrepancyConfig(C=C), None
    )
    # Sized by the monitor (k = 13 on these seeds), not doubled to 16.
    assert projection.steps < 2 * operators._KRYLOV_START
    assert len(factor_sizes) <= 2
    reference = solve_spectral(prob.decomp, fd, selection.alpha).u
    u = projection.solution(selection.alpha) * unit
    assert np.linalg.norm(u - reference) <= 1e-8 * np.linalg.norm(reference)


def test_gradient_family_matches_dense_oracle():
    n = 512
    prob = make_problem("gradient_family", n)
    for rel_noise, seed in ((1e-2, 5), (1e-4, 6)):
        fd, delta = _noisy(prob, rel_noise, seed)
        solution, selection = discrepancy.regularized_solve_auto(gradient_callbacks(n), fd, delta)
        target = C * delta
        assert abs(selection.achieved_residual - target) <= 1e-8 * target
        assert abs(solution.residual_norm - target) <= 1e-8 * target
        assert solution.solution_norm <= np.linalg.norm(prob.y) * (1 + 1e-10)
        reference = solve_spectral(prob.decomp, fd, selection.alpha).u
        assert np.linalg.norm(solution.u - reference) <= 1e-8 * np.linalg.norm(reference)


def test_gradient_callbacks_match_the_closed_form_at_n_2048():
    # Past the dense oracle: the closed-form singular system is the reference.
    n = 2048
    prob = make_problem("gradient_family", n)
    fd, delta = _noisy(prob, 1e-2, 5)
    solution, selection = discrepancy.regularized_solve_auto(gradient_callbacks(n), fd, delta)
    target = C * delta
    assert abs(selection.achieved_residual - target) <= 1e-8 * target
    assert abs(solution.residual_norm - target) <= 1e-8 * target
    reference = solve_spectral(GradientOperator(n)._system, fd, selection.alpha).u
    assert np.linalg.norm(solution.u - reference) <= 1e-8 * np.linalg.norm(reference)


def test_failed_certificate_on_a_sized_space_doubles(monkeypatch, factor_sizes):
    certifies = _KrylovProjection.certifies
    forced = []

    def fail_once_when_sized(self, alpha):
        if self._sized and not forced:
            forced.append(self.steps)
            return False
        return certifies(self, alpha)

    monkeypatch.setattr(_KrylovProjection, "certifies", fail_once_when_sized)
    prob = make_problem("deriv2", 256)
    fd, delta = _noisy(prob, 1e-3, 1)
    _select(matrix_free_view(prob.op), fd, delta, DiscrepancyConfig(C=C), None)
    sized = forced[0]
    assert operators._KRYLOV_START < sized < 2 * operators._KRYLOV_START
    assert factor_sizes == [operators._KRYLOV_START, sized, 2 * sized]


def _rotated_sweep(projection, alpha):
    """The sweep as damped LSQR's rotations column by column, stored as tuples."""
    k = projection.steps
    rhobar, phibar, columns = projection._alpha[0], projection._beta[0], []
    for beta, alpha_next in zip(projection._beta[1 : k + 1], projection._alpha[1 : k + 1]):
        rhobar1 = math.sqrt(rhobar**2 + alpha)
        cbar, sbar = rhobar / rhobar1, math.sqrt(alpha) / rhobar1
        psi, phibar = -sbar * phibar, cbar * phibar
        rho = math.hypot(rhobar1, beta)
        cs, sn = rhobar1 / rho, beta / rho
        rhobar = -cs * alpha_next
        phi, phibar = cs * phibar, sn * phibar
        columns.append((rho, sn * alpha_next, phi, cbar, sbar, psi, cs, sn))
    y, later = [0.0] * k, 0.0
    for j in range(k - 1, -1, -1):
        rho, theta, phi = columns[j][:3]
        y[j] = later = (phi - theta * later) / rho
    w_sq, w, theta = 0.0, 0.0, 0.0
    for (rho, theta_next, *_), y_j in zip(columns, y):
        w = (y_j - theta * w) / rho
        w_sq += w * w
        theta = theta_next
    t, r = phibar, []
    for *_, cbar, sbar, psi, cs, sn in reversed(columns):
        r.append(-cs * t)
        t = cbar * sn * t - sbar * psi
    r.append(t)
    return y, math.fsum(v * v for v in r), 2.0 * alpha * alpha * w_sq, r[0]


@pytest.mark.parametrize("k", [8, 13, 40])
def test_fused_sweep_is_bit_identical_to_the_rotations(k):
    prob = make_problem("deriv2", 128)
    fd, _ = _noisy(prob, 1e-2, 4)
    projection = _KrylovProjection(matrix_free_view(prob.op), fd, IterativeSolverConfig())
    projection._grow(k)
    for alpha in (1e-14, 1e-9, 1e-5, 1.0, 1e14):
        _, y, g, slope, s_last = projection._sweep(alpha)
        want_y, want_g, want_slope, want_s_last = _rotated_sweep(projection, alpha)
        assert (g, slope, s_last) == (want_g, want_slope, want_s_last)
        assert y.tolist() == want_y


@pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-3])
def test_sweep_matches_exact_projected_solve(alpha):
    prob = make_problem("deriv2", 128)
    fd, _ = _noisy(prob, 1e-2, 4)
    projection = _KrylovProjection(matrix_free_view(prob.op), fd, IterativeSolverConfig())
    projection._grow(2 * projection.steps)
    g, slope, s_last, y = _exact_damped(projection, alpha)
    _, y_sweep, g_sweep, slope_sweep, s_last_sweep = projection._sweep(alpha)
    assert g_sweep == pytest.approx(g, rel=1e-12, abs=0.0)
    assert slope_sweep == pytest.approx(slope, rel=1e-12, abs=0.0)
    assert s_last_sweep == pytest.approx(s_last, rel=1e-12, abs=0.0)
    assert np.linalg.norm(y_sweep - y) <= 1e-12 * np.linalg.norm(y)


def test_floor_is_the_null_vector_share_of_the_data():
    prob = make_problem("deriv2", 128)
    fd, _ = _noisy(prob, 1e-2, 4)
    projection = _KrylovProjection(matrix_free_view(prob.op), fd, IterativeSolverConfig())
    k = projection.steps
    b = np.zeros((k + 1, k))
    b[np.arange(k), np.arange(k)] = projection._alpha[:k]
    b[np.arange(1, k + 1), np.arange(k)] = projection._beta[1 : k + 1]
    null = np.linalg.svd(b)[0][:, k]  # the left singular vector B_k^T annihilates
    assert projection.floor() == pytest.approx((projection._beta[0] * null[0]) ** 2, rel=1e-12)


def test_moments_match_the_singular_system():
    # A tall matrix exhausts the space at k = 3 by alpha_4 = 0, and the
    # projected problem is then exact: g(0+), ||f||^2 - g(0+) and ||A^T f||^2
    # are the singular system's.
    dense = DenseOperator(philox(9).standard_normal((6, 3)))
    f = philox(10).standard_normal(6)
    krylov = _KrylovProjection(matrix_free_view(dense), f, IterativeSolverConfig())
    spectral = svd_decompose(dense)._project(f)
    assert krylov.exhausted and krylov.steps == 3
    assert krylov.outside_sq == pytest.approx(spectral.outside_sq, rel=1e-12)
    np.testing.assert_allclose(krylov.moments(), spectral.moments(), rtol=1e-12)


def test_floor_is_zero_on_a_space_exhausted_by_beta(factor_sizes, monkeypatch):
    # The gradient's rows span R^(n-1), so beta_n = 0 ends its space at
    # k = n - 1 with f in the range of a square B_k.  g(0+) is read once per
    # factorization of B_k, including that last one.
    reads = []
    floor = _KrylovProjection.floor

    def counted(self):
        reads.append(self.steps)
        return floor(self)

    monkeypatch.setattr(_KrylovProjection, "floor", counted)
    n = 16
    f = philox(5).standard_normal(n - 1)
    projection = _KrylovProjection(gradient_callbacks(n), f, IterativeSolverConfig())
    projection._grow(n)
    assert projection.exhausted and projection.steps == n - 1
    assert projection._beta[n - 1] == 0.0
    assert projection.outside_sq == 0.0
    assert reads == factor_sizes == [8, n - 1]
    # Residual matching certifies its root only there, where g(0+) = 0.
    selection, projection, _ = _select(gradient_callbacks(n), f, 1e-3, DiscrepancyConfig(C=C), None)
    assert projection.exhausted and reads[-1] == n - 1
    assert abs(selection.achieved_residual - C * 1e-3) <= 1e-10 * C * 1e-3


def test_sweep_residual_does_not_cancel():
    # A = [[0.1]]: at the root r = 3.1e-8 against beta_1 = 0.0206, and
    # beta_1 - B y loses ~5e-10 of g to cancellation, more than the root
    # tolerance of 1e-10.
    f, delta = np.array([-0.0206]), 2.06e-8
    op = MatrixFreeOperator(1, 1, lambda x: 0.1 * x, lambda w: 0.1 * w)
    projection = _KrylovProjection(op, f, IterativeSolverConfig())
    for alpha in (1e-12, 1.5e-8, 1e-4):
        a = Fraction(alpha)
        exact = float((a * Fraction(0.0206) / (Fraction(0.1) ** 2 + a)) ** 2)
        assert projection.discrepancy(alpha)[0] == pytest.approx(exact, rel=1e-12, abs=0.0)
    solution, selection = discrepancy.regularized_solve_auto(op, f, delta)
    target = C * delta
    assert abs(selection.achieved_residual - target) <= 1e-10 * target
    assert abs(solution.residual_norm - target) <= 1e-8 * target


@pytest.mark.parametrize("name", ["deriv2", "gradient_family"])
def test_matrix_free_selection_factors_nothing(name, monkeypatch):
    prob = make_problem(name, 256)
    fd, delta = _noisy(prob, 1e-2, 3)
    system = matrix_free_view(prob.op)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    solution, selection = discrepancy.regularized_solve_auto(system, fd, delta)
    assert abs(selection.achieved_residual - C * delta) <= 1e-8 * C * delta


def test_rootless_spaces_evaluate_no_g(monkeypatch, factor_sizes):
    # gradient_family has no root on spaces up to k = 64; the null-vector
    # floor says so before any g(alpha) is evaluated there.
    evaluated = []
    discrepancy_at = _KrylovProjection.discrepancy

    def counted(self, alpha):
        evaluated.append(self.steps)
        return discrepancy_at(self, alpha)

    monkeypatch.setattr(_KrylovProjection, "discrepancy", counted)
    prob = make_problem("gradient_family", 256)
    fd, delta = _noisy(prob, 1e-2, 1)
    _select(matrix_free_view(prob.op), fd, delta, DiscrepancyConfig(C=C), None)
    assert factor_sizes == [8, 16, 32, 64, 128, 255]
    assert evaluated and min(evaluated) == 128


def test_gradient_family_selection_memory():
    prob = make_problem("gradient_family", 256)
    fd, delta = _noisy(prob, 1e-2, 1)
    system = matrix_free_view(prob.op)
    tracemalloc.start()
    try:
        discrepancy.solve_alpha(system, fd, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("alpha", [1e200, 1e280])
@pytest.mark.parametrize("case", ["hilbert", "gradient_callbacks"])
def test_krylov_solve_at_a_large_alpha_is_the_adjoint_over_alpha(case, alpha):
    # u = (A^T A + alpha I)^{-1} A^T f = A^T f / alpha to within ||A||^2 / alpha,
    # while ||u||^2 underflows: it is 1e-396 on hilbert at 1e200.
    if case == "hilbert":
        prob = make_problem("hilbert", 5000)
        op, f = prob.op, prob.f
    else:
        op, f = gradient_callbacks(512), make_problem("gradient_family", 512).f
    want = op.apply_adjoint(f)
    for solve in (solve_primal, solve_dual):
        solution = solve(op, f, alpha)
        assert solution.path == solve.__name__[len("solve_") :]
        assert np.linalg.norm(solution.u * alpha - want) <= 1e-12 * np.linalg.norm(want)
        assert solution.solution_norm == pytest.approx(np.linalg.norm(want) / alpha, rel=1e-12)


@pytest.mark.parametrize("k", [600, -600])
def test_krylov_solve_is_invariant_to_the_scale_of_the_data(k):
    # ||f||^2 overflows at 2^600 and underflows at 2^-600; beta_1 = ||f|| does not.
    prob = make_problem("deriv2", 64)
    op = matrix_free_view(prob.op)
    plain = solve_primal(op, prob.f, 1e-3)
    scaled = solve_primal(op, prob.f * 2.0**k, 1e-3)
    assert scaled.iterations == plain.iterations
    assert np.array_equal(scaled.u, plain.u * 2.0**k)
