"""Penalized least-squares solvers: min ||A u - f||^2 + alpha ||u||^2.

The unique minimizer is computed by three independent routes whose mutual
agreement is part of the test contract:

* ``solve_primal``  -- the domain-space normal equations
  (A^T A + alpha I) u = A^T f, solved directly for dense operators via QR
  on the stacked system [A; sqrt(alpha) I], and by conjugate gradients on
  the shifted normal operator otherwise.
* ``solve_dual``    -- the range-space system (A A^T + alpha I) w = f with
  u = A^T w.  This route is defined for every right-hand side, and the
  map f -> u has norm at most 1 / (2 sqrt(alpha)) regardless of ||A||.
* ``solve_spectral`` -- the explicit filter formula
  u = sum_i sigma_i / (sigma_i^2 + alpha) <u_i, f> v_i from a singular
  system; exact finite sum, used as the oracle for the other two.

Direct dense routes avoid forming A^T A or A A^T: both Gram products
square the condition number and, for rank-deficient shapes at small
alpha, lose more than the 1e-8 agreement budget (measured; see the
stacked-QR forms below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError
from .operators import (
    SpectralDecomposition,
    _as_data,
    _as_vector,
    _check_alpha,
    _readonly,
    filter_factors,
    svd_decompose,
)

__all__ = [
    "IterativeSolverConfig",
    "RegularizedSolution",
    "solve_primal",
    "solve_dual",
    "solve_spectral",
    "solve_shifted_normal",
    "functional_value",
    "apriori_alpha_schedule",
    "solution_operator_norm",
]

_NORM_POWER_SEED = 0xA17A


@dataclass(frozen=True)
class IterativeSolverConfig:
    """Tolerances for the conjugate-gradient fallback.

    ``max_iterations=None`` means 10 * domain_dim, resolved at solve time.
    """

    rel_tolerance: float = 1e-12
    max_iterations: int | None = None

    def __post_init__(self):
        if not 0.0 < self.rel_tolerance < 1.0:
            raise InvalidParameterError("rel_tolerance must lie in (0, 1)")
        if self.max_iterations is not None and int(self.max_iterations) < 1:
            raise InvalidParameterError("max_iterations must be >= 1")

    def budget(self, domain_dim):
        if self.max_iterations is None:
            return 10 * int(domain_dim)
        return int(self.max_iterations)


@dataclass(frozen=True)
class RegularizedSolution:
    """A minimizer together with recomputed certificates.

    ``residual_norm`` and ``solution_norm`` are always recomputed from the
    returned vector, never taken from solver internals.  ``iterations`` is
    zero for the direct routes.
    """

    u: np.ndarray
    alpha: float
    residual_norm: float
    solution_norm: float
    path: str
    iterations: int


def _solution(u, alpha, residual_norm, path, iterations):
    return RegularizedSolution(
        u=_readonly(u),
        alpha=float(alpha),
        residual_norm=float(residual_norm),
        solution_norm=float(np.linalg.norm(u)),
        path=path,
        iterations=int(iterations),
    )


def _conjugate_gradients(apply_system, b, rel_tolerance, budget):
    """CG for S x = b with S = ``apply_system`` SPD; returns (x, iterations).

    Stops on the recurrence residual, then confirms against the true
    residual and restarts if recurrence drift produced a false stop.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    target = rel_tolerance * bnorm
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for k in range(1, budget + 1):
        ap = apply_system(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise ConvergenceError(
                "conjugate gradients broke down (curvature <= 0)",
                iterations=k,
                achieved_residual=float(np.sqrt(rs)) / bnorm,
            )
        step = rs / pap
        x += step * p
        r -= step * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            true_r = b - apply_system(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= 1.01 * target:
                return x, k
            r = true_r
            rs_new = true_norm**2
            p = r.copy()
            rs = rs_new
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError(
        f"conjugate gradients did not reach {rel_tolerance:.1e} "
        f"within {budget} iterations",
        iterations=budget,
        achieved_residual=float(np.sqrt(rs)) / bnorm,
        last_iterate=x,
    )


def _dense_stacked_solve(matrix, alpha, top, bottom):
    """Least-squares solve of [M; sqrt(alpha) I] x ~ [top; bottom] via QR.

    The stacked matrix has full column rank with smallest singular value
    at least sqrt(alpha), so the triangular factor is invertible.
    """
    m, n = matrix.shape
    # R of the augmented matrix [stacked | rhs] carries Q^T rhs in its last
    # column, so Q is never formed: building it, as numpy's reduced QR
    # does, roughly doubles the cost of a solve.  One buffer filled in
    # place spares the stacking copies, which cost a third of a solve at
    # n = 128.
    aug = np.zeros((m + n, n + 1))
    aug[:m, :n] = matrix
    np.fill_diagonal(aug[m:], np.sqrt(alpha))
    aug[:m, n] = top
    aug[m:, n] = bottom
    r = np.linalg.qr(aug, mode="r")
    # numpy has no triangular solve; LU of the upper-triangular block
    # needs no row exchanges.
    return np.linalg.solve(r[:n, :n], r[:n, n])


def _dense_dual_apply(matrix, alpha, f):
    """Evaluate A^T (A A^T + alpha I)^{-1} f without forming the inverse.

    With the QR factorization [A^T; sqrt(alpha) I] = Q R, the fitted value
    of the associated least-squares problem stacks [A^T w; sqrt(alpha) w],
    whose leading rows are exactly u = A^T w.  Reading u off the projection
    Q Q^T [0; f / sqrt(alpha)] sidesteps the intermediate w, whose norm
    scales like ||f|| / alpha when f has a large component outside the
    range of A.
    """
    m, n = matrix.shape
    stacked = np.vstack([matrix.T, np.sqrt(alpha) * np.eye(m)])
    rhs = np.concatenate([np.zeros(n), f / np.sqrt(alpha)])
    q = np.linalg.qr(stacked)[0]
    return q[:n, :] @ (q.T @ rhs)


def solve_shifted_normal(op, b, alpha, cfg=None):
    """Solve (A^T A + alpha I) x = b for a general domain vector b.

    Direct for dense and diagonal operators, conjugate gradients for
    matrix-free ones.  Accuracy contract: the residual of the shifted
    normal system is at most ``rel_tolerance * ||b||``.
    """
    a = _check_alpha(alpha)
    b = _as_data(b, op.domain_dim, "b")
    cfg = cfg or IterativeSolverConfig()
    if op.kind == "dense":
        x = _dense_stacked_solve(
            op.matrix, a, np.zeros(op.range_dim), b / np.sqrt(a)
        )
        return x, 0
    if op.kind == "diagonal":
        return b / (op.values**2 + a), 0
    return _conjugate_gradients(
        lambda x: op.apply_shifted_normal(a, x),
        b,
        cfg.rel_tolerance,
        cfg.budget(op.domain_dim),
    )


def solve_primal(op, f, alpha, cfg=None):
    """Minimize the penalized functional via the domain-space system.

    Solves (A^T A + alpha I) u = A^T f.  The system operator is symmetric
    positive definite with spectrum inside [alpha, sigma_1^2 + alpha], so
    the conjugate-gradient fallback converges for every alpha > 0.
    """
    a = _check_alpha(alpha)
    f = _as_data(f, op.range_dim, "f")
    if not np.any(f):
        return _solution(np.zeros(op.domain_dim), a, 0.0, "primal", 0)
    if op.kind == "dense":
        u = _dense_stacked_solve(op.matrix, a, f, np.zeros(op.domain_dim))
        iters = 0
    else:
        u, iters = solve_shifted_normal(op, op.apply_adjoint(f), a, cfg)
    residual = np.linalg.norm(op.apply(u) - f)
    return _solution(u, a, residual, "primal", iters)


def solve_dual(op, f, alpha, cfg=None):
    """Minimize the penalized functional via the range-space system.

    Solves (A A^T + alpha I) w = f and returns u = A^T w.  Well defined
    for every f: data outside the range of A is annihilated by A^T, and
    the whole map is bounded by 1 / (2 sqrt(alpha)) independently of the
    operator norm.
    """
    a = _check_alpha(alpha)
    f = _as_data(f, op.range_dim, "f")
    cfg = cfg or IterativeSolverConfig()
    if not np.any(f):
        return _solution(np.zeros(op.domain_dim), a, 0.0, "dual", 0)
    if op.kind == "dense":
        u = _dense_dual_apply(op.matrix, a, f)
        iters = 0
    elif op.kind == "diagonal":
        u = op.values * (f / (op.values**2 + a))
        iters = 0
    else:
        # Same SPD structure as the primal system, one dimension over.
        w, iters = _conjugate_gradients(
            lambda w: op.apply(op.apply_adjoint(w)) + a * w,
            f,
            cfg.rel_tolerance,
            cfg.budget(op.range_dim),
        )
        u = op.apply_adjoint(w)
    residual = np.linalg.norm(op.apply(u) - f)
    return _solution(u, a, residual, "dual", iters)


def solve_spectral(decomp, f, alpha):
    """Minimize the penalized functional by the explicit filter sum.

    Exact finite evaluation of u = V diag(sigma/(sigma^2+alpha)) U^T f.
    The residual norm follows from the same expansion:
    ||A u - f||^2 = sum_i (alpha/(sigma_i^2+alpha))^2 <u_i,f>^2 + ||P f||^2
    with P the projection onto the orthogonal complement of the range.
    """
    a = _check_alpha(alpha)
    f = _as_data(f, decomp.range_dim, "f")
    coeff = decomp.range_coefficients(f)
    s = decomp.singular_values
    u = decomp.right_vectors @ (filter_factors(s, a) * coeff)
    out_of_range_sq = float(np.linalg.norm(f - decomp.left_vectors @ coeff) ** 2)
    damped_sq = float(np.sum((a / (s**2 + a)) ** 2 * coeff**2))
    residual = np.sqrt(damped_sq + out_of_range_sq)
    return _solution(u, a, residual, "spectral", 0)


def functional_value(op, u, f, alpha):
    """Evaluate ||A u - f||^2 + alpha ||u||^2."""
    a = _check_alpha(alpha)
    u = _as_vector(u, op.domain_dim, "u")
    f = _as_vector(f, op.range_dim, "f")
    return float(np.linalg.norm(op.apply(u) - f) ** 2 + a * np.linalg.norm(u) ** 2)


def apriori_alpha_schedule(delta):
    """A-priori parameter choice alpha(delta) = delta.

    Any schedule with alpha -> 0 and delta / sqrt(alpha) -> 0 yields a
    convergent method; this is the simplest compliant choice, giving a
    data-error term delta / (2 sqrt(alpha)) = sqrt(delta) / 2.
    """
    d = float(delta)
    if not np.isfinite(d) or d <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    return d


def solution_operator_norm(target, alpha, tol=1e-10, max_iters=20000, cfg=None):
    """Spectral norm of the data-to-solution map f -> argmin of the functional.

    Equals max_i sigma_i / (sigma_i^2 + alpha), which never exceeds
    1 / (2 sqrt(alpha)).  Evaluated from the singular values when
    ``target`` is a decomposition or a dense operator; otherwise by power
    iteration on the composed map, at one pair of shifted-normal solves
    per step.
    """
    a = _check_alpha(alpha)
    if isinstance(target, SpectralDecomposition):
        if target.rank == 0:
            return 0.0
        return float(np.max(filter_factors(target.singular_values, a)))
    if target.kind == "dense":
        return solution_operator_norm(svd_decompose(target), a)
    if target.kind == "diagonal":
        return float(np.max(filter_factors(target.values, a))) if target.values.size else 0.0
    cfg = cfg or IterativeSolverConfig()
    rng = np.random.default_rng(np.random.Philox(_NORM_POWER_SEED))
    v = rng.standard_normal(target.domain_dim)
    v /= np.linalg.norm(v)
    estimate = np.inf
    for k in range(int(max_iters)):
        z, _ = solve_shifted_normal(target, v, a, cfg)
        b = target.apply_adjoint(target.apply(z))
        g, _ = solve_shifted_normal(target, b, a, cfg)
        lam = float(np.linalg.norm(g))
        if lam == 0.0:
            return 0.0
        current = float(np.sqrt(lam))
        if abs(current - estimate) <= tol * current:
            return current
        estimate = current
        v = g / lam
    raise ConvergenceError(
        f"power iteration on the solution map did not settle in {max_iters} steps",
        last_estimate=estimate,
        iterations=int(max_iters),
    )
