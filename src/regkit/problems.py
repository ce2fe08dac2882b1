"""Reproducible test problems with known minimal-norm solutions.

Every catalog entry constructs the solution vector first and defines the
exact data as its image, so the constructed system is solvable by
construction.  When the computed singular system has values at or below
``DEFAULT_RANK_TOLERANCE * sigma_1``, the solution is projected onto the
row space of the others, making it the minimal-norm representative of
the data it generates.  hilbert and phillips above ``MAX_DENSE_DIM`` have
no singular system, so their solution is left as constructed.

Noise directions come from the Philox counter-based generator (64-bit,
keyed by the caller's seed), so noisy data is reproducible bit-for-bit
across runs and platforms; the perturbation is rescaled to hit the
requested level exactly rather than merely bounding it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnknownProblemError
from .operators import (
    DiagonalOperator,
    GradientOperator,
    GreenOperator,
    LinearOperator,
    ToeplitzOperator,
    DEFAULT_RANK_TOLERANCE,
    SpectralDecomposition,
    _as_real,
    _check_count,
    _kept,
    _norm,
    _readonly,
    svd_decompose,  # noqa: F401  (perfbench/spans.py wraps this binding)
    write_dense_text,
)

__all__ = [
    "ProblemInstance",
    "NoisyData",
    "PROBLEM_NAMES",
    "PROBLEM_SUMMARIES",
    "make_problem",
    "add_noise",
    "problem_descriptor",
    "export_problem",
]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """An operator with its exact minimal-norm solution and exact data.

    Invariants: f = A y up to rounding, computed through ``op.apply``, and
    f is nonzero.  ``decomp`` is ``op._system``, untruncated: at alpha = 0
    use ``svd_decompose(op)``, or ``minimal_norm_solution(decomp, f)``,
    which reads it at ``DEFAULT_RANK_TOLERANCE``.  Wherever ``decomp`` is
    set, y is orthogonal to its null space at that tolerance, and so the
    minimal-norm solution.  hilbert and phillips above ``MAX_DENSE_DIM``
    have no system: ``decomp`` is None and y is the unprojected profile,
    which for hilbert's numerically rank-deficient matrix is not
    minimal-norm.  Two instances are equal only if they are the same
    object.
    """

    name: str
    n: int
    params: dict
    op: LinearOperator
    y: np.ndarray
    f: np.ndarray
    decomp: SpectralDecomposition | None = None


@dataclass(frozen=True, eq=False)
class NoisyData:
    """Perturbed data with ||f_delta - f|| = delta exactly; equal only to itself."""

    f_delta: np.ndarray
    delta: float
    seed: int


def _grid(n, a, b):
    h = (b - a) / n
    return a + (np.arange(1, n + 1) - 0.5) * h, h


def _build_diagonal(n, p=2.0):
    p = _as_real(p, "p")
    idx = np.arange(1, n + 1, dtype=float)
    op = DiagonalOperator(idx ** (-p))
    return op, 1.0 / idx, {"p": p}


def _build_hilbert(n):
    # 1 / (1 + k) on the antidiagonals k = i + j: i + j and the + 1 are
    # exact, so only the division rounds, as in the expression.
    index = np.arange(n, dtype=float)
    op = ToeplitzOperator(1.0 / (1.0 + index), 1.0 / (n + index), hankel=True)
    return op, np.ones(n), {}


def _build_deriv2(n):
    # Midpoint discretization of the Green's-function kernel for the
    # second derivative on [0, 1] with zero boundary values.
    t, _ = _grid(n, 0.0, 1.0)
    return GreenOperator(n), t * (1.0 - t), {}


def _phillips_kernel(d, h):
    """h (1 + cos(pi d / 3)) where |d| < 3, else 0, computed in d's buffer."""
    outside = d >= 3.0
    outside |= d <= -3.0
    d *= np.pi
    d /= 3.0
    np.cos(d, out=d)
    d += 1.0
    d[outside] = 0.0
    d *= h
    return d


def _phillips_entries(t, h, rows):
    """Rows ``rows`` of phillips' matrix: the kernel at every t_i - t_j."""
    return _phillips_kernel(np.subtract.outer(t[rows], t), h)


def _build_phillips(n):
    # Classical first-kind convolution on [-6, 6]: the kernel, and the
    # solution profile, are 1 + cos(pi x / 3) supported on |x| < 3.
    t, h = _grid(n, -6.0, 6.0)
    # t[n-1-i] = -t[i] bit for bit, and t = 0 exactly in the middle of an
    # odd n, which ``_grid`` misses in the last bit at most n but powers
    # of two, so that the matrix is reflection-symmetric and factors as
    # two blocks at every n.
    half = n // 2
    t[n - half :] = -t[half - 1 :: -1]
    t[half : n - half] = 0.0
    y = np.where(np.abs(t) < 3.0, 1.0 + np.cos(np.pi * t / 3.0), 0.0)
    # The FFT takes the kernel at the first column's and row's differences;
    # the matrix takes it at every t_i - t_j, which round differently.
    op = ToeplitzOperator(
        _phillips_kernel(t - t[0], h),
        _phillips_kernel(t[0] - t, h),
        entries=functools.partial(_phillips_entries, t, h),
    )
    return op, y, {}


def _build_gradient_family(n):
    # Forward differences scaled by n: the discrete d/dt on (n-1) interior
    # steps.  The norm grows like 2n, while the null space stays the
    # constants, so the family probes bounds claimed uniform in ||A||.
    t = (np.arange(1, n + 1) - 0.5) / n
    y = np.sin(2.0 * np.pi * t)
    return GradientOperator(n), y - y.mean(), {}


_CATALOG = {
    "diagonal": _build_diagonal,
    "hilbert": _build_hilbert,
    "deriv2": _build_deriv2,
    "phillips": _build_phillips,
    "gradient_family": _build_gradient_family,
}

PROBLEM_NAMES = tuple(sorted(_CATALOG))

PROBLEM_SUMMARIES = {
    "diagonal": "diag(i^-p) with solution 1/i; closed forms for everything (param p, default 2)",
    "hilbert": "Hilbert matrix 1/(i+j-1) with all-ones solution",
    "deriv2": "midpoint Galerkin kernel of the second-derivative boundary problem on [0,1]",
    "phillips": "classical first-kind convolution equation on [-6,6]",
    "gradient_family": "scaled forward differences; operator norm ~ 2n grows without bound",
}


def make_problem(name, n, decompose=True, **params):
    """Build a catalog problem of size n.

    Parameters
    ----------
    name : str
        One of ``PROBLEM_NAMES``.
    n : int
        Discretization size, an integer at least 2 (5.0 counts, 3.7
        does not).  No size is capped: every operator takes O(n) memory.
        hilbert (a Hankel matrix) and phillips (a Toeplitz one) are
        of kind ``ToeplitzOperator``, applied by FFT; each builds its n x n
        matrix only when ``op.matrix`` is read, or for a factorization
        that needs it (hilbert below n = 256).
    decompose : bool
        Build ``op._system``, attach it and project the solution on its
        vectors above ``DEFAULT_RANK_TOLERANCE * sigma_1``.  For hilbert
        and phillips up to ``MAX_DENSE_DIM``, that factors the matrix
        without building it: at n = 4096 hilbert's set-up keeps 1 MiB and
        peaks at 7 MiB, and phillips' keeps 64 MiB of eigenvectors, held
        once for both sides of its symmetric blocks, and peaks at 97 MiB
        (tracemalloc).  hilbert's system, of rank 20 to 27 for n from 256
        to 4096, comes from one certified random block on FFT products in
        O(n r log n): ~7 ms at n = 1024, where factoring the whole matrix
        takes ~250 ms, and no later solve on ``op`` factors.  Above
        ``MAX_DENSE_DIM`` they have no system, ``decomp`` stays None and
        the solution is not projected.
    **params
        Problem-specific parameters, e.g. ``p`` for ``diagonal``.

    Returns
    -------
    ProblemInstance
    """
    if name not in _CATALOG:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}"
        )
    n = _check_count(n, "n")
    if n < 2:
        raise InvalidParameterError(f"problem size must be >= 2, got {n}")
    try:
        op, y, kept_params = _CATALOG[name](n, **params)
    except TypeError as exc:
        raise InvalidParameterError(
            f"bad parameters for problem {name!r}: {exc}"
        ) from None
    decomp = op._system if decompose else None
    if decomp is not None:
        kept = _kept(decomp.singular_values, DEFAULT_RANK_TOLERANCE)
        if kept.sum() < op.domain_dim:
            # Minimal-norm representative: drop the computed null component.
            y = decomp._right(decomp._right_t(y) * kept)
    f = op.apply(y)
    if not np.linalg.norm(f) > 0:
        raise InvalidParameterError(
            f"problem {name!r} with n={n} degenerates to zero data"
        )
    return ProblemInstance(
        name=name,
        n=n,
        params=dict(kept_params),
        op=op,
        y=_readonly(y),
        f=_readonly(f),
        decomp=decomp,
    )


def add_noise(problem, delta, seed):
    """Perturb exact data along a seeded random direction.

    The direction is a standard-normal draw from ``Philox(seed)``; the
    same seed always reproduces the same data.  The perturbation is
    rescaled to the requested level and the *realized* level
    ``||f_delta - f||`` is stored as ``delta``, so the stored pair is
    exactly consistent.  Adding noise to data quantizes it at the
    floating-point grid of f, so the realized level can differ from the
    requested one by about ``eps * ||f|| / delta`` in relative terms.
    ``seed`` is an integer >= 0 (5.0 counts, 3.7 does not), stored as an int.
    """
    delta = _as_real(delta, "delta")
    if not np.isfinite(delta) or delta <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    seed = _check_count(seed, "seed", least=0)
    rng = np.random.default_rng(np.random.Philox(seed))
    direction = rng.standard_normal(problem.op.range_dim)
    direction /= np.linalg.norm(direction)
    f_delta = problem.f + delta * direction
    realized = f_delta - problem.f
    norm_realized = _norm(realized)
    if norm_realized > 0:
        # One correction pass tightens the realized level toward the
        # requested one; the FP grid of f limits how close it can get.
        f_delta = problem.f + realized * (delta / norm_realized)
    return NoisyData(
        f_delta=_readonly(f_delta),
        delta=_norm(f_delta - problem.f),
        seed=seed,
    )


def problem_descriptor(problem):
    """JSON-ready descriptor {name, n, params, y, f} for cross-checks."""
    return {
        "name": problem.name,
        "n": problem.n,
        "params": dict(problem.params),
        "y": [float(v) for v in problem.y],
        "f": [float(v) for v in problem.f],
    }


def export_problem(problem, matrix_path, descriptor_path):
    """Write the operator in matrix text format plus the JSON descriptor."""
    write_dense_text(problem.op, matrix_path)
    with open(descriptor_path, "w", encoding="ascii") as fh:
        json.dump(problem_descriptor(problem), fh, indent=2)
        fh.write("\n")
