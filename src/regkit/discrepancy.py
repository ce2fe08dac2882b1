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
from .tikhonov import IterativeSolverConfig, _solution, solve_primal
from .tikhonov import solve_spectral  # noqa: F401  (perfbench/spans.py wraps this binding)

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
    the given decomposition, the SVD of a dense operator (its
    eigendecomposition when the matrix is exactly symmetric, and built
    from two half-size blocks when ``A[::-1, ::-1] == +-A`` exactly),
    the closed form of a diagonal, gradient or Green's one, or a
    Golub-Kahan Krylov space for any other, extended until its solution
    at the root is certified.  Every g(alpha) is then O(rank) arithmetic
    on the projected spectrum, or on a Krylov space of dimension k one
    O(k) sweep of Givens rotations over its bidiagonal.  The root is
    found by Newton steps on ln g against ln alpha with the analytic
    slope, bisecting whenever a step leaves the bracket.  g is evaluated
    at the bracket's ends only when the iteration needs one; an end on
    the wrong side of the target is widened by factors of 10 (at most 20
    steps per side) and Newton restarts on the wider bracket.  Success
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
    alpha = None
    while True:
        selection = _root(projection, threshold, cfg, alpha)
        if selection is not None and projection.certifies(selection.alpha):
            return selection, projection
        alpha = None if selection is None else selection.alpha
        projection.extend(alpha)


def _root(projection, threshold, cfg, start=None):
    """The root on one projection, or None if it needs a longer one.

    A projection that is not ``exhausted`` may see no root below or a
    saturating g only because it resolves too little of the spectrum.
    Since g increases from g(0+), a ``floor`` g(0+) at or above the target
    rules out a root before any g is evaluated.
    Newton starts at ``start``, the root on a shorter projection, when
    the bracket holds it, and at the bracket's log midpoint otherwise.
    It assumes the bracket straddles the root, and ``_newton`` checks an
    end only when the iteration needs it.  An end on the wrong side of
    the target is widened by factors of 10, at most ``_MAX_EXPANSIONS``
    times, and Newton restarts on the wider bracket: the iterates of a
    search that evaluated both ends first and widened them at once.
    """
    target = threshold**2
    if not projection.exhausted and projection.floor() >= target:
        return None
    lo, hi = (float(v) for v in cfg.alpha_bracket)
    checked = set()  # the ends known to lie on their side of the root
    lo_expansions = hi_expansions = 0
    while True:
        expansions = lo_expansions + hi_expansions
        found = _newton(projection, threshold, cfg, lo, hi, start, checked, expansions)
        if isinstance(found, AlphaSelection):
            return found
        end, g_end = found
        if end == "lo":
            while g_end >= target and lo_expansions < _MAX_EXPANSIONS:
                lo /= 10.0
                g_end = projection.discrepancy(lo)[0]
                lo_expansions += 1
            if g_end >= target:
                if not projection.exhausted:
                    return None
                raise NoRootBelowError(
                    f"discrepancy value {g_end:.6g} at alpha = {lo:.3g} already exceeds "
                    f"the target (C*delta)^2 = {target:.6g}; the data component outside "
                    "the operator range is larger than the stated noise level allows",
                    g_at_zero=g_end,
                )
        else:
            while g_end <= target and hi_expansions < _MAX_EXPANSIONS:
                hi *= 10.0
                g_end = projection.discrepancy(hi)[0]
                hi_expansions += 1
            if g_end <= target:
                if not projection.exhausted:
                    return None
                raise ConvergenceError(
                    f"discrepancy value saturates at {g_end:.6g} below the target "
                    f"{target:.6g} even at alpha = {hi:.3g}",
                    g_at_infinity=g_end,
                )
        checked.add(end)


def _newton(projection, threshold, cfg, lo, hi, start, checked, expansions):
    """Newton on [lo, hi]: the ``AlphaSelection``, or (end, g) for an end that misses the root.

    Newton runs on h(t) = ln g(e^t) - ln target, t = ln alpha, which is
    increasing, and bisects whenever a step leaves [t_lo, t_hi].  Any
    evaluated point replaces the end on its side, and an end not in
    ``checked`` is taken to straddle the root until the iteration needs
    it: on its second bisection toward that end, or when the bracket
    collapses or the iteration budget is spent before a root is found.
    Only then is g evaluated there; an end on its side joins ``checked``.
    While the root lies inside the bracket the iterates do not depend on
    g at its ends.
    """
    target = threshold**2
    ends = {"lo": lo, "hi": hi}

    def misses(end):
        g_end = projection.discrepancy(ends[end])[0]
        if (g_end >= target) if end == "lo" else (g_end <= target):
            return end, g_end
        checked.add(end)
        return None

    t_lo, t_hi = math.log(lo), math.log(hi)
    t = math.log(start) if start is not None and lo < start < hi else 0.5 * (t_lo + t_hi)
    bisections = {"lo": 0, "hi": 0}
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
            t_lo, passed, toward = t, "lo", "hi"
        else:
            t_hi, passed, toward = t, "hi", "lo"
        checked.add(passed)
        step = t - gap * g_at / slope if slope > 0 else math.nan
        if t_lo < step < t_hi:
            t = step
            continue
        bisections[toward] += 1
        if bisections[toward] >= 2 and toward not in checked:
            missed = misses(toward)
            if missed:
                return missed
        t = 0.5 * (t_lo + t_hi)
        if not t_lo < t < t_hi:
            break
    for end in ends:
        if end not in checked:
            missed = misses(end)
            if missed:
                return missed
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
    strictly above the noise level.  The solution comes from the projection
    the selection used.  On a decomposition its residual is the selection's
    ``achieved_residual``, the exact spectral sum ``solve_spectral`` would
    compute; on an operator it is recomputed through the operator.
    """
    selection, projection = _select(system, f_delta, delta, cfg, solver_cfg)
    u = projection.solution(selection.alpha)
    if isinstance(system, SpectralDecomposition):
        residual = selection.achieved_residual
    else:
        residual = np.linalg.norm(system.apply(u) - f_delta)
    return _solution(u, selection.alpha, residual, "spectral", projection.steps), selection
