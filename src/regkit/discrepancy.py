"""Residual-matching choice of the regularization weight.

The discrepancy function g(alpha) = ||A u_alpha - f_delta||^2 is
continuous and strictly increasing wherever the data has a component in
the closure of the range of A, with limits

    g(0+)  = ||P f_delta||^2   (P projects outside the range, <= delta^2
                                for admissible noise),
    g(inf) = ||f_delta||^2.

Given ||f_delta|| > C * delta with C > 1, the equation g(alpha) =
(C delta)^2 therefore has exactly one positive root.  The solver projects
the data once onto a singular system of the operator (for matrix-free
operators, and for the first selection on a fresh symmetric dense
matrix, a Golub-Kahan Krylov space grown until it certifies the root),
and runs Newton's method on phi(beta) = (g(1/beta) - g(0+))^(-1/2)
in beta = 1/alpha from beta = 0, alpha = infinity.  phi is concave and
increasing, so the iterates climb to the root without crossing it, as in
Reinsch's smoothing-spline iteration (Numer. Math. 10, 1967): no bracket
is needed, and scaling A by s scales the root by s^2.  Acceptance
is judged on the achieved residual, since the downstream guarantees (in
particular ||u|| <= ||y||) are stated through the residual value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DataTooNoisyError,
    InvalidParameterError,
    NoRootBelowError,
)
from .operators import (
    SpectralDecomposition,
    _as_data,
    _as_real,
    _check_alpha,
    _check_count,
    _norm,
)
from .tikhonov import IterativeSolverConfig, _solution, solve_primal
from .tikhonov import solve_spectral  # noqa: F401  (perfbench/spans.py wraps this binding)

__all__ = [
    "DiscrepancyConfig",
    "AlphaSelection",
    "discrepancy_value",
    "solve_alpha",
    "regularized_solve_auto",
]


@dataclass(frozen=True)
class DiscrepancyConfig:
    """Residual-matching parameters.

    ``C`` must exceed 1: the target residual C*delta has to sit strictly
    above the noise level for the root to exist and for the norm bound
    ||u_delta|| <= ||y|| to follow.  A root is accepted once the achieved
    residual matches C*delta to ``root_rel_tolerance``, and the search on
    one projection makes at most ``max_root_iterations`` g evaluations.
    """

    C: float = 1.5
    root_rel_tolerance: float = 1e-10
    max_root_iterations: int = 200

    def __post_init__(self):
        for name in ("C", "root_rel_tolerance"):
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
        if not self.C > 1.0:
            raise InvalidParameterError(f"C must exceed 1, got {self.C}")
        if not 0.0 < self.root_rel_tolerance < 1.0:
            raise InvalidParameterError("root_rel_tolerance must lie in (0, 1)")
        count = _check_count(self.max_root_iterations, "max_root_iterations")
        object.__setattr__(self, "max_root_iterations", count)


@dataclass(frozen=True)
class AlphaSelection:
    """A root of the discrepancy equation with its certificate.

    ``iterations`` counts the g evaluations of the last root search.
    ``bracket_expansions`` is always 0: the search takes no bracket.
    """

    alpha: float
    g_value: float
    achieved_residual: float
    bracket_expansions: int
    iterations: int


def discrepancy_value(system, f_delta, alpha, solver_cfg=None):
    """Squared residual of the regularized solution at a given alpha.

    With a singular system available this is the exact spectral sum

        sum_i (alpha / (sigma_i^2 + alpha))^2 <u_i, f_delta>^2
        + ||P f_delta||^2,

    reusing one decomposition across many alpha values.  Otherwise the
    regularized system is solved and the residual measured, at one linear
    solve per call.
    """
    a = _check_alpha(alpha)
    f_delta = _as_data(f_delta, system.range_dim, "f_delta")
    if isinstance(system, SpectralDecomposition):
        return system._project(f_delta).discrepancy(a)[0]
    sol = solve_primal(system, f_delta, a, solver_cfg)
    return float(sol.residual_norm**2)


def solve_alpha(system, f_delta, delta, cfg=None, solver_cfg=None):
    """Solve g(alpha) = (C delta)^2 for the unique positive root.

    The data is projected once onto a singular system of the operator:
    the given decomposition, the SVD of a dense operator (its
    eigendecomposition when the matrix is exactly symmetric, and built
    from two half-size blocks when ``A[::-1, ::-1] == +-A`` exactly),
    the same of a Toeplitz operator's matrix up to ``MAX_DENSE_DIM``, the
    closed form of a diagonal, gradient or Green's one, or a Golub-Kahan
    Krylov space for any other, extended until its solution at the root
    is certified.  The first selection on a dense operator with an
    exactly symmetric matrix and no system yet takes the Krylov space,
    to at most max(32, n // 8) steps, and moves to the factorization
    only if the space has not certified the root by then; later
    selections on that operator reuse the factorization.  The space
    honours ``solver_cfg.rel_tolerance``; its cap replaces
    ``max_iterations``.  Every g(alpha) is then O(rank) arithmetic
    on the projected spectrum, or on a Krylov space of dimension k one
    O(k) sweep of Givens rotations over its bidiagonal.  The root is
    found by Newton steps on phi(beta) = (g(1/beta) - g(0+))^(-1/2) in
    beta = 1/alpha with the analytic slope, the first from beta = 0 in
    closed form.  phi is concave and increasing, so every iterate before
    the root lies above it in alpha and g stays above the target (see
    ``_root``); the search needs no bracket, and scaling A by s scales the
    root by s^2.  Success means the achieved residual matches C*delta to
    ``root_rel_tolerance``.

    Raises
    ------
    DataTooNoisyError
        If ``||f_delta|| <= C * delta``: then g(inf) = ||f_delta||^2 never
        reaches the target and the equation has no root.
    NoRootBelowError
        If g(0+) reaches the target, i.e. the data component outside the
        range is at least C*delta; this signals an understated noise
        level, since that component is at most delta for admissible noise.
        It is decided before any g is evaluated.
    ConvergenceError
        If the root search or the Krylov space exhausts its budget.
    """
    return _select(system, f_delta, delta, cfg, solver_cfg)[0]


def _select(system, f_delta, delta, cfg, solver_cfg):
    """``solve_alpha``'s selection, the projection it used and the data's unit.

    The projection and the root search see f_delta / unit and C delta /
    unit, with unit the power of two that puts ||f_delta|| / unit in
    [1, 2), so that no square they form overflows or underflows, whatever
    the scale of the data.  Dividing by a power of two is exact and the
    root is homogeneous of degree 0 in the data, so alpha keeps the bits
    of a search on the data itself wherever that one stays in range.  The
    selection's g and residual are in the data's units; the projection's
    solution is to be multiplied by unit.
    """
    cfg = cfg or DiscrepancyConfig()
    delta = _as_real(delta, "delta")
    if not np.isfinite(delta) or delta <= 0:
        raise InvalidParameterError(
            f"delta must be positive, got {delta}; the residual-matching rule "
            "degenerates for exact data (use the a-priori schedule instead)"
        )
    f_delta = _as_data(f_delta, system.range_dim, "f_delta")
    data_norm = _norm(f_delta)
    threshold = cfg.C * delta
    if data_norm <= threshold:
        raise DataTooNoisyError(
            f"||f_delta|| = {data_norm:.6g} does not exceed C*delta = "
            f"{threshold:.6g}; the discrepancy equation needs "
            "||f_delta|| > C*delta to have a root",
            data_norm=data_norm,
            threshold=threshold,
        )
    unit = 2.0 ** (math.frexp(data_norm)[1] - 1)
    f_delta = f_delta / unit
    projection = system._project(f_delta, solver_cfg or IterativeSolverConfig())
    alpha = None
    while True:
        selection = _root(projection, threshold / unit, cfg, alpha, unit)
        if selection is not None and projection.certifies(selection.alpha):
            return selection, projection, unit
        alpha = None if selection is None else selection.alpha
        try:
            grown = projection.extend(alpha)
        except ConvergenceError as err:
            if err.last_iterate is not None:  # x_k for f_delta / unit
                err.last_iterate = err.diagnostics["last_iterate"] = err.last_iterate * unit
            raise
        if not grown:
            # A capped space did not certify: select on the operator's
            # singular system, from scratch.
            projection, alpha = system._system._project(f_delta), None


def _root(projection, threshold, cfg, start=None, unit=1.0):
    """The root on one projection, or None if it needs a longer one.

    The projection's data and ``threshold`` are the caller's divided by
    ``unit``; the selection and the errors report g and the residual
    multiplied back by it.

    With beta = 1/alpha and G(beta) = g(1/beta) - g(0+), the function
    phi(beta) = G(beta)^(-1/2) is increasing and concave: it is
    beta / ||p(1/beta)||, the perspective of 1/||p||, which is concave for
    p(lambda) = sum_i c_i u_i / (lambda + sigma_i^2) (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 4, 1983).  Newton's tangent lies above a
    concave phi, so from a point left of the root, where phi is below
    (target - g(0+))^(-1/2), it lands left of the root again: the iterates
    climb to it monotonically, as in Reinsch's smoothing-spline iteration
    (Numer. Math. 10, 1967).  The first step is taken from beta = 0,
    alpha = infinity, in closed form, since phi(0) and phi'(0) need only
    the projection's ``moments``.  So the search needs no bracket, and
    scaling A by s scales every iterate by s^2.

    ``start``, the root on a shorter projection, is tried first.  A Newton
    step from right of the root that lands at beta <= 0 restarts from the
    beta = 0 step.  g(0+) at or above the target rules out a root before
    any g is evaluated; a projection that is not ``exhausted`` may only be
    too short to resolve the range.
    """
    target = threshold * threshold  # correctly rounded, where pow may miss by an ulp
    floor = projection.outside_sq
    if floor >= target:
        if not projection.exhausted:
            return None
        floor, target = floor * unit * unit, target * unit * unit
        raise NoRootBelowError(
            f"discrepancy value {floor:.6g} as alpha -> 0 already reaches the target "
            f"(C*delta)^2 = {target:.6g}; the data component outside the operator "
            "range is larger than the stated noise level allows",
            g_at_zero=floor,
        )
    span = target - floor  # G at the root
    inside_sq, gradient_sq = projection.moments()  # G(0) and ||A^T f||^2
    # The excess is positive unless ||f|| meets C*delta to rounding.
    excess = max(math.sqrt(inside_sq / span) - 1.0, math.ulp(1.0))
    first = gradient_sq / (inside_sq * excess)
    alpha = first if start is None else start
    for iterations in range(1, cfg.max_root_iterations + 1):
        g, slope = projection.discrepancy(alpha)
        residual = math.sqrt(g)
        if abs(residual - threshold) <= cfg.root_rel_tolerance * threshold:
            return AlphaSelection(
                alpha=alpha,
                g_value=g * unit * unit,
                achieved_residual=residual * unit,
                bracket_expansions=0,
                iterations=iterations,
            )
        # The Newton step on phi is beta -> beta * scale, with
        # dG/d(beta) = -alpha * slope.
        above = g - floor
        scale = 0.0
        if above > 0.0 and slope > 0.0:
            scale = 1.0 + 2.0 * above * (math.sqrt(above / span) - 1.0) / slope
        last, alpha = alpha, (alpha / scale if scale > 0.0 else first)
    raise ConvergenceError(
        f"discrepancy root search exhausted its budget ({iterations} evaluations)",
        iterations=iterations,
        last_alpha=last,
        achieved_residual=residual * unit,
    )


def regularized_solve_auto(system, f_delta, delta, cfg=None, solver_cfg=None):
    """Select alpha by residual matching, then solve at the selected value.

    Returns the pair (solution, selection); the solution's residual equals
    C*delta within the root tolerance.  When the caller knows the exact
    minimal-norm solution y, the returned vector additionally satisfies
    ||u|| <= ||y|| up to rounding, a consequence of matching the residual
    strictly above the noise level.  The solution comes from the projection
    the selection used, and its ``path`` names that projection:
    ``"spectral"`` for a singular system, ``"krylov"`` for a Golub-Kahan
    space (a matrix-free operator, a Toeplitz one above ``MAX_DENSE_DIM``,
    or the first selection on a fresh symmetric dense matrix).  On a
    decomposition its residual is the selection's ``achieved_residual``,
    the exact spectral sum ``solve_spectral`` would compute; on an
    operator it is recomputed through the operator.
    """
    selection, projection, unit = _select(system, f_delta, delta, cfg, solver_cfg)
    u = projection.solution(selection.alpha) * unit
    if isinstance(system, SpectralDecomposition):
        residual = selection.achieved_residual
    else:
        residual = _norm(system.apply(u) - f_delta)
    return _solution(u, selection.alpha, residual, projection.path, projection.steps), selection
