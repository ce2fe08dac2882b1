"""Residual-matching choice of the regularization weight.

The discrepancy function g(alpha) = ||A u_alpha - f_delta||^2 is
continuous and strictly increasing wherever the data has a component in
the closure of the range of A, with limits

    g(0+)  = ||P f_delta||^2   (P projects outside the range, <= delta^2
                                for admissible noise),
    g(inf) = ||f_delta||^2.

Given ||f_delta|| > C * delta with C > 1, the equation g(alpha) =
(C delta)^2 therefore has exactly one positive root; the solver brackets
it geometrically and then runs a safeguarded secant/bisection hybrid on
log10(alpha).  Acceptance is judged on the achieved residual, since the
downstream guarantees (in particular ||u|| <= ||y||) are stated through
the residual value.
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
from .tikhonov import solve_primal, solve_spectral

__all__ = [
    "DiscrepancyConfig",
    "AlphaSelection",
    "discrepancy_value",
    "solve_alpha",
    "regularized_solve_auto",
]

_MAX_EXPANSIONS = 20  # per bracket side, factor-10 steps


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
        coeff = system.range_coefficients(f_delta)
        damped = (a / (system.singular_values**2 + a)) * coeff
        outside = f_delta - system.left_vectors @ coeff
        return float(damped @ damped + outside @ outside)
    sol = solve_primal(system, f_delta, a, solver_cfg)
    return float(sol.residual_norm**2)


def solve_alpha(system, f_delta, delta, cfg=None, solver_cfg=None):
    """Solve g(alpha) = (C delta)^2 for the unique positive root.

    The default bracket is widened by factors of 10 (at most 20 steps per
    side) until it straddles the target; the root is then isolated on a
    log10(alpha) axis by secant steps safeguarded with bisection.  Success
    means the achieved residual matches C*delta to ``root_rel_tolerance``.

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
        If the iteration budget is exhausted.
    """
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
    target = threshold**2

    def g(a):
        return discrepancy_value(system, f_delta, a, solver_cfg)

    lo, hi = (float(v) for v in cfg.alpha_bracket)
    g_lo, g_hi = g(lo), g(hi)
    expansions = 0
    while g_lo >= target and expansions < _MAX_EXPANSIONS:
        lo /= 10.0
        g_lo = g(lo)
        expansions += 1
    if g_lo >= target:
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
        raise ConvergenceError(
            f"discrepancy value saturates at {g_hi:.6g} below the target "
            f"{target:.6g} even at alpha = {hi:.3g}",
            g_at_infinity=g_hi,
        )

    # Root isolation on t = log10(alpha).  s(t) compares log-magnitudes,
    # which keeps secant steps sane across the many decades g spans.
    tiny = 5e-324

    def loggap(value):
        return math.log(max(value, tiny)) - math.log(target)

    t_lo, t_hi = math.log10(lo), math.log10(hi)
    s_lo, s_hi = loggap(g_lo), loggap(g_hi)
    width_two_ago = t_hi - t_lo
    iterations = 0
    alpha_at = 10.0 ** (0.5 * (t_lo + t_hi))
    g_at = None
    while iterations < cfg.max_root_iterations:
        width = t_hi - t_lo
        use_bisection = (
            s_hi == s_lo
            or iterations >= 2
            and width > 0.5 * width_two_ago
        )
        if use_bisection:
            t_new = 0.5 * (t_lo + t_hi)
        else:
            t_new = t_lo - s_lo * (t_hi - t_lo) / (s_hi - s_lo)
            margin = 0.01 * width
            if not (t_lo + margin <= t_new <= t_hi - margin):
                t_new = 0.5 * (t_lo + t_hi)
        width_two_ago = width
        alpha_at = 10.0**t_new
        g_at = g(alpha_at)
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
        if g_at < target:
            t_lo, s_lo = t_new, loggap(g_at)
        else:
            t_hi, s_hi = t_new, loggap(g_at)
        if t_hi - t_lo < 1e-15:
            break
    raise ConvergenceError(
        "discrepancy root search exhausted its budget "
        f"({iterations} evaluations, bracket [{10.0**t_lo:.6g}, {10.0**t_hi:.6g}])",
        iterations=iterations,
        last_alpha=alpha_at,
        achieved_residual=math.sqrt(g_at) if g_at is not None else None,
    )


def regularized_solve_auto(system, f_delta, delta, cfg=None, solver_cfg=None):
    """Select alpha by residual matching, then solve at the selected value.

    Returns the pair (solution, selection); the solution's residual equals
    C*delta within the root tolerance.  When the caller knows the exact
    minimal-norm solution y, the returned vector additionally satisfies
    ||u|| <= ||y|| up to rounding, a consequence of matching the residual
    strictly above the noise level.
    """
    selection = solve_alpha(system, f_delta, delta, cfg, solver_cfg)
    if isinstance(system, SpectralDecomposition):
        solution = solve_spectral(system, f_delta, selection.alpha)
    else:
        solution = solve_primal(system, f_delta, selection.alpha, solver_cfg)
    return solution, selection
