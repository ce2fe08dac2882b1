"""Penalized least-squares solvers: min ||A u - f||^2 + alpha ||u||^2.

The unique minimizer is computed by three independent routes whose mutual
agreement is part of the test contract:

* ``solve_primal``  -- the domain-space normal equations
  (A^T A + alpha I) u = A^T f.
* ``solve_dual``    -- the range-space system (A A^T + alpha I) w = f with
  u = A^T w.  This route is defined for every right-hand side, and the
  map f -> u has norm at most 1 / (2 sqrt(alpha)) regardless of ||A||.
* ``solve_spectral`` -- the explicit filter formula
  u = sum_i sigma_i / (sigma_i^2 + alpha) <u_i, f> v_i from a singular
  system; exact finite sum, used as the oracle for the other two.

The routes validate their input, call the operator's kernel
(``regkit.operators``: QR on stacked systems for dense operators, the
filter formula on the operator's untruncated singular system for the
other kinds that have one, otherwise one Golub-Kahan space grown until
it certifies alpha), and recompute the certificates from the returned
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .operators import (
    MatrixFreeOperator,
    SpectralDecomposition,
    _as_data,
    _as_real,
    _as_vector,
    _check_alpha,
    _check_count,
    _norm,
    _readonly,
    filter_factors,
    operator_norm_estimate,
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


@dataclass(frozen=True)
class IterativeSolverConfig:
    """Tolerances for the Golub-Kahan solves of operators without direct forms.

    A solve stops once its certified error ||x_k - x|| is at most
    ``rel_tolerance * ||x_k||``.  ``max_iterations`` counts Golub-Kahan
    steps; ``None`` means 10 * domain_dim, resolved at solve time.
    """

    rel_tolerance: float = 1e-12
    max_iterations: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "rel_tolerance", _as_real(self.rel_tolerance, "rel_tolerance"))
        if not 0.0 < self.rel_tolerance < 1.0:
            raise InvalidParameterError("rel_tolerance must lie in (0, 1)")
        if self.max_iterations is not None:
            count = _check_count(self.max_iterations, "max_iterations")
            object.__setattr__(self, "max_iterations", count)

    def budget(self, domain_dim):
        if self.max_iterations is None:
            return 10 * int(domain_dim)
        return self.max_iterations


@dataclass(frozen=True)
class RegularizedSolution:
    """A minimizer together with recomputed certificates.

    ``residual_norm`` and ``solution_norm`` are always recomputed from the
    returned vector, never taken from solver internals.  ``iterations`` is
    zero for the direct routes.  ``path`` is the route that ran:
    ``"primal"``, ``"dual"`` or ``"spectral"`` for the fixed-alpha solves,
    and for a residual-matched one (``regularized_solve_auto``)
    ``"spectral"`` on a singular system or ``"krylov"`` on a Golub-Kahan
    space, whose steps ``iterations`` counts.
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
        solution_norm=_norm(u),
        path=path,
        iterations=int(iterations),
    )


def _minimize(op, f, alpha, cfg, path):
    """Validate f, run the operator's ``path`` kernel, certify the result."""
    a = _check_alpha(alpha)
    f = _as_data(f, op.range_dim, "f")
    if not np.any(f):
        return _solution(np.zeros(op.domain_dim), a, 0.0, path, 0)
    kernel = op._solve_primal if path == "primal" else op._solve_dual
    u, iters = kernel(a, f, cfg or IterativeSolverConfig())
    return _solution(u, a, _norm(op.apply(u) - f), path, iters)


def solve_shifted_normal(op, b, alpha, cfg=None):
    """Solve (A^T A + alpha I) x = b for a general domain vector b.

    Direct for dense operators and for any operator with a singular
    system; otherwise damped LSQR on [A; c I], c^2 = alpha / 2, to
    ``IterativeSolverConfig``'s certified error, which bounds the shifted
    normal residual by ``rel_tolerance * ||b|| / 2`` in exact arithmetic.
    """
    a = _check_alpha(alpha)
    b = _as_data(b, op.domain_dim, "b")
    if not np.any(b):
        return np.zeros(op.domain_dim), 0
    return op._solve_normal(a, b, cfg or IterativeSolverConfig())


def solve_primal(op, f, alpha, cfg=None):
    """Minimize the penalized functional via the domain-space system.

    Solves (A^T A + alpha I) u = A^T f.  Without a direct form this is
    damped LSQR on the Golub-Kahan space of f, to the certified error of
    ``IterativeSolverConfig``.
    """
    return _minimize(op, f, alpha, cfg, "primal")


def solve_dual(op, f, alpha, cfg=None):
    """Minimize the penalized functional via the range-space system.

    Solves (A A^T + alpha I) w = f and returns u = A^T w.  Without a direct
    form it returns ``solve_primal``'s certified x_k: the two maps are one
    operator, A^T (A A^T + alpha I)^{-1} = (A^T A + alpha I)^{-1} A^T.
    Well defined for every f: data outside the range of A is annihilated by
    A^T, and the map is bounded by 1 / (2 sqrt(alpha)) whatever ||A|| is.
    """
    return _minimize(op, f, alpha, cfg, "dual")


def solve_spectral(decomp, f, alpha):
    """Minimize the penalized functional by the explicit filter sum.

    Exact finite evaluation of u = V diag(sigma/(sigma^2+alpha)) U^T f.
    The residual norm follows from the same expansion:
    ||A u - f||^2 = sum_i (alpha/(sigma_i^2+alpha))^2 <u_i,f>^2 + ||P f||^2
    with P the projection onto the orthogonal complement of the range.
    """
    a = _check_alpha(alpha)
    projection = decomp._project(_as_data(f, decomp.range_dim, "f"))
    residual = np.sqrt(projection.discrepancy(a)[0])
    return _solution(projection.solution(a), a, residual, "spectral", 0)


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
    d = _as_real(delta, "delta")
    if not np.isfinite(d) or d <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    return d


def solution_operator_norm(target, alpha, tol=1e-10, max_iters=20000, cfg=None):
    """Spectral norm of the data-to-solution map f -> argmin of the functional.

    Equals max_i sigma_i / (sigma_i^2 + alpha), which never exceeds
    1 / (2 sqrt(alpha)).  Evaluated from the singular values when
    ``target`` is a decomposition, or from the operator's untruncated
    ``_system``, the one its solves filter through, when it has one;
    otherwise by ``operator_norm_estimate`` on the adjoint map
    R^T = A (A^T A + alpha I)^{-1}, at one pair of shifted-normal solves
    per step.
    """
    a = _check_alpha(alpha)
    decomp = target if isinstance(target, SpectralDecomposition) else target._system
    if decomp is not None:
        s = decomp.singular_values
        return float(np.max(filter_factors(s, a))) if s.size else 0.0
    cfg = cfg or IterativeSolverConfig()
    adjoint_map = MatrixFreeOperator(
        target.range_dim,
        target.domain_dim,
        lambda x: target.apply(solve_shifted_normal(target, x, a, cfg)[0]),
        lambda w: solve_shifted_normal(target, target.apply_adjoint(w), a, cfg)[0],
    )
    return operator_norm_estimate(adjoint_map, tol, max_iters)
