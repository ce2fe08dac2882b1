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
operators, a Golub-Kahan Krylov space grown until it certifies the
root), brackets the root geometrically, and runs Newton's method on
ln g against ln alpha, safeguarded by bisection in the bracket.
Acceptance is judged on the achieved residual, since the downstream
guarantees (in particular ||u|| <= ||y||) are stated through the
residual value.
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
from .operators import SpectralDecomposition, _as_data, _check_alpha
from .tikhonov import IterativeSolverConfig, _solution, solve_primal, solve_spectral

__all__ = [
    "DiscrepancyConfig",
    "AlphaSelection",
    "discrepancy_value",
    "solve_alpha",
    "regularized_solve_auto",
]

_MAX_EXPANSIONS = 20  # per bracket side, factor-10 steps
_TINY = 5e-324  # floor for ln g when g underflows to zero


@dataclass(frozen=True)
class DiscrepancyConfig:
    """Residual-matching parameters.

    ``C`` must exceed 1: the target residual C*delta has to sit strictly
    above the noise level for the root to exist and for the norm bound
    ||u_delta|| <= ||y|| to follow.
    """

    C: float = 1.5
    alpha_bracket: tuple[float, float] = (1e-14, 1e14)
    root_rel_tolerance: float = 1e-10
    max_root_iterations: int = 200

    def __post_init__(self):
        if not self.C > 1.0:
            raise InvalidParameterError(f"C must exceed 1, got {self.C}")
        lo, hi = self.alpha_bracket
        if not (0.0 < lo < hi):
            raise InvalidParameterError(
                f"alpha_bracket must be 0 < low < high, got {self.alpha_bracket}"
            )
        if not 0.0 < self.root_rel_tolerance < 1.0:
            raise InvalidParameterError("root_rel_tolerance must lie in (0, 1)")
        if int(self.max_root_iterations) < 1:
            raise InvalidParameterError("max_root_iterations must be >= 1")


@dataclass(frozen=True)
class AlphaSelection:
    """A root of the discrepancy equation with its certificate."""

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
    the given decomposition, the SVD of a dense operator, the closed form
    of a diagonal one, or a Golub-Kahan Krylov space for any other,
    extended until its solution at the root is certified.  Every g(alpha)
    is then O(rank) arithmetic on the projected spectrum.  The default
    bracket is widened by factors of 10 (at most 20 steps per side) until
    it straddles the target; the root is then found by Newton steps on
    ln g against ln alpha with the analytic slope, bisecting whenever a
    step leaves the bracket.  Success means the achieved residual matches
    C*delta to ``root_rel_tolerance``.

    Raises
    ------
    DataTooNoisyError
        If ``||f_delta|| <= C * delta``: then g(inf) = ||f_delta||^2 never
        reaches the target and the equation has no root.
    NoRootBelowError
        If g stays above the target as alpha -> 0, i.e. the data component
        outside the range already exceeds C*delta; this signals an
        understated noise level, since that component is at most delta
        for admissible noise.
    ConvergenceError
        If the root search or the Krylov space exhausts its budget.
    """
    return _select(system, f_delta, delta, cfg, solver_cfg)[0]


def _select(system, f_delta, delta, cfg, solver_cfg):
    """``solve_alpha``'s selection together with the projection it used."""
    cfg = cfg or DiscrepancyConfig()
    delta = float(delta)
    if not np.isfinite(delta) or delta <= 0:
        raise InvalidParameterError(
            f"delta must be positive, got {delta}; the residual-matching rule "
            "degenerates for exact data (use the a-priori schedule instead)"
        )
    f_delta = _as_data(f_delta, system.range_dim, "f_delta")
    data_norm = float(np.linalg.norm(f_delta))
    threshold = cfg.C * delta
    if data_norm <= threshold:
        raise DataTooNoisyError(
            f"||f_delta|| = {data_norm:.6g} does not exceed C*delta = "
            f"{threshold:.6g}; the discrepancy equation needs "
            "||f_delta|| > C*delta to have a root",
            data_norm=data_norm,
            threshold=threshold,
        )
    projection = system._project(f_delta, solver_cfg or IterativeSolverConfig())
    while True:
        selection = _root(projection, threshold, cfg)
        if selection is not None and projection.certifies(selection.alpha):
            return selection, projection
        projection.extend()


def _root(projection, threshold, cfg):
    """The root on one projection, or None if it needs a longer one.

    A projection that is not ``exhausted`` may see no root below or a
    saturating g only because it resolves too little of the spectrum.
    """
    target = threshold**2

    def g(a):
        return projection.discrepancy(a)[0]

    lo, hi = (float(v) for v in cfg.alpha_bracket)
    g_lo, g_hi = g(lo), g(hi)
    expansions = 0
    while g_lo >= target and expansions < _MAX_EXPANSIONS:
        lo /= 10.0
        g_lo = g(lo)
        expansions += 1
    if g_lo >= target:
        if not projection.exhausted:
            return None
        raise NoRootBelowError(
            f"discrepancy value {g_lo:.6g} at alpha = {lo:.3g} already exceeds "
            f"the target (C*delta)^2 = {target:.6g}; the data component outside "
            "the operator range is larger than the stated noise level allows",
            g_at_zero=g_lo,
        )
    hi_expansions = 0
    while g_hi <= target and hi_expansions < _MAX_EXPANSIONS:
        hi *= 10.0
        g_hi = g(hi)
        hi_expansions += 1
    expansions += hi_expansions
    if g_hi <= target:
        if not projection.exhausted:
            return None
        raise ConvergenceError(
            f"discrepancy value saturates at {g_hi:.6g} below the target "
            f"{target:.6g} even at alpha = {hi:.3g}",
            g_at_infinity=g_hi,
        )

    # Newton on h(t) = ln g(e^t) - ln target, t = ln alpha, which is
    # increasing; [t_lo, t_hi] always straddles its root.
    t_lo, t_hi = math.log(lo), math.log(hi)
    t = 0.5 * (t_lo + t_hi)
    iterations = 0
    while iterations < cfg.max_root_iterations:
        alpha_at = math.exp(t)
        g_at, slope = projection.discrepancy(alpha_at)
        iterations += 1
        residual = math.sqrt(g_at)
        if abs(residual - threshold) <= cfg.root_rel_tolerance * threshold:
            return AlphaSelection(
                alpha=alpha_at,
                g_value=g_at,
                achieved_residual=residual,
                bracket_expansions=expansions,
                iterations=iterations,
            )
        gap = math.log(max(g_at, _TINY) / target)
        if gap < 0:
            t_lo = t
        else:
            t_hi = t
        step = t - gap * g_at / slope if slope > 0 else math.nan
        t = step if t_lo < step < t_hi else 0.5 * (t_lo + t_hi)
        if not t_lo < t < t_hi:
            break
    raise ConvergenceError(
        "discrepancy root search exhausted its budget "
        f"({iterations} evaluations, bracket [{math.exp(t_lo):.6g}, {math.exp(t_hi):.6g}])",
        iterations=iterations,
        last_alpha=alpha_at,
        achieved_residual=math.sqrt(g_at),
    )


def regularized_solve_auto(system, f_delta, delta, cfg=None, solver_cfg=None):
    """Select alpha by residual matching, then solve at the selected value.

    Returns the pair (solution, selection); the solution's residual equals
    C*delta within the root tolerance.  When the caller knows the exact
    minimal-norm solution y, the returned vector additionally satisfies
    ||u|| <= ||y|| up to rounding, a consequence of matching the residual
    strictly above the noise level.  A decomposition is solved by
    ``solve_spectral``; an operator's solution comes from the projection
    the selection used, with its residual recomputed through the operator.
    """
    selection, projection = _select(system, f_delta, delta, cfg, solver_cfg)
    if isinstance(system, SpectralDecomposition):
        return solve_spectral(system, f_delta, selection.alpha), selection
    u = projection.solution(selection.alpha)
    residual = np.linalg.norm(system.apply(u) - f_delta)
    return _solution(u, selection.alpha, residual, "spectral", projection.steps), selection
