"""Linear operators, adjoints, and singular-value machinery.

Operators come in three kinds: ``dense`` (an explicit matrix), ``diagonal``
(a square nonnegative diagonal), and ``matrix_free`` (forward/adjoint
callbacks).  All values are immutable after construction and every
operation here is a pure function, so concurrent use needs no locking;
matrix-free callbacks must themselves be re-entrant.

Scalars are real throughout.  The singular-value decomposition of a dense
operator provides the spectral calculus used elsewhere: filter factors,
projections onto the range and its complement, and minimal-norm solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidParameterError,
    NotInRangeError,
    SizeLimitError,
    UnsupportedKindError,
)

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "MatrixFreeOperator",
    "SpectralDecomposition",
    "operator_norm_estimate",
    "svd_decompose",
    "diagonal_decomposition",
    "filter_factors",
    "null_space_residual",
    "minimal_norm_solution",
    "as_dense_matrix",
    "write_dense_text",
    "read_dense_text",
    "DEFAULT_RANK_TOLERANCE",
    "MAX_DENSE_DIM",
]

#: Singular values sigma_i are retained iff sigma_i > tol * sigma_1.
DEFAULT_RANK_TOLERANCE = 1e-12

#: Largest dimension accepted for dense factorizations.
MAX_DENSE_DIM = 4096

#: Fixed seed for the power-iteration start vector (reproducible runs).
_POWER_START_SEED = 0x5EED


def _as_vector(x, dim, label):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatchError(
            f"{label} must be a vector of length {dim}, got shape {np.shape(x)}"
        )
    return v


def _as_data(x, dim, label):
    """``_as_vector`` plus a finiteness check, for vectors a caller supplies.

    Kept out of ``_as_vector``, which also runs inside every matvec.
    """
    v = _as_vector(x, dim, label)
    if not np.isfinite(v).all():
        raise InvalidParameterError(f"{label} must be finite; it holds inf or nan")
    return v


def _check_alpha(alpha):
    a = float(alpha)
    if not np.isfinite(a) or a <= 0.0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    return a


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class LinearOperator:
    """A real linear map from R^domain_dim to R^range_dim."""

    kind = "abstract"

    def __init__(self, range_dim, domain_dim):
        range_dim, domain_dim = int(range_dim), int(domain_dim)
        if range_dim < 1 or domain_dim < 1:
            raise InvalidParameterError("operator dimensions must be positive")
        self.range_dim = range_dim
        self.domain_dim = domain_dim

    def apply(self, x):
        """Return A @ x for a domain vector x."""
        raise NotImplementedError

    def apply_adjoint(self, w):
        """Return A^T @ w for a range vector w."""
        raise NotImplementedError

    def apply_shifted_normal(self, alpha, x):
        """Return (A^T A + alpha I) @ x, composed from apply/apply_adjoint."""
        a = _check_alpha(alpha)
        x = _as_vector(x, self.domain_dim, "x")
        return self.apply_adjoint(self.apply(x)) + a * x

    def __repr__(self):
        return (
            f"{type(self).__name__}(range_dim={self.range_dim}, "
            f"domain_dim={self.domain_dim})"
        )


class DenseOperator(LinearOperator):
    """Operator backed by an explicit (range_dim x domain_dim) matrix."""

    kind = "dense"

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionMismatchError(
                f"dense operator needs a 2-d matrix, got shape {matrix.shape}"
            )
        if not np.isfinite(matrix).all():
            raise InvalidParameterError("dense operator entries must be finite")
        self.matrix = _readonly(matrix)
        super().__init__(matrix.shape[0], matrix.shape[1])

    def apply(self, x):
        return self.matrix @ _as_vector(x, self.domain_dim, "x")

    def apply_adjoint(self, w):
        return self.matrix.T @ _as_vector(w, self.range_dim, "w")


class DiagonalOperator(LinearOperator):
    """Square operator diag(values) with nonnegative entries."""

    kind = "diagonal"

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise DimensionMismatchError("diagonal needs a 1-d vector of entries")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InvalidParameterError("diagonal entries must be finite and >= 0")
        self.values = _readonly(values)
        super().__init__(values.shape[0], values.shape[0])

    def apply(self, x):
        return self.values * _as_vector(x, self.domain_dim, "x")

    def apply_adjoint(self, w):
        return self.values * _as_vector(w, self.range_dim, "w")


class MatrixFreeOperator(LinearOperator):
    """Operator given by forward/adjoint callbacks; never materialized.

    The callbacks receive and return 1-d float arrays.  Their output
    shapes are checked on every call, so a mismatched callback fails
    loudly instead of corrupting downstream algebra.
    """

    kind = "matrix_free"

    def __init__(self, range_dim, domain_dim, forward, adjoint):
        super().__init__(range_dim, domain_dim)
        self._forward = forward
        self._adjoint = adjoint

    def apply(self, x):
        x = _as_vector(x, self.domain_dim, "x")
        out = np.asarray(self._forward(x), dtype=float)
        return _as_vector(out, self.range_dim, "forward callback output")

    def apply_adjoint(self, w):
        w = _as_vector(w, self.range_dim, "w")
        out = np.asarray(self._adjoint(w), dtype=float)
        return _as_vector(out, self.domain_dim, "adjoint callback output")


def operator_norm_estimate(op, tol=1e-10, max_iters=5000):
    """Estimate the spectral norm ||A||_2 by power iteration on A^T A.

    The start vector is drawn from a fixed internal seed, so repeated
    calls give identical iterates.  Stops when successive estimates agree
    to a relative ``tol``; under a generic start this tracks the relative
    error of the estimate.

    Raises
    ------
    ConvergenceError
        If the budget runs out; the last estimate and iteration count are
        attached as diagnostics.
    """
    tol = float(tol)
    max_iters = int(max_iters)
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iters < 1:
        raise InvalidParameterError("max_iters must be >= 1")
    rng = np.random.default_rng(np.random.Philox(_POWER_START_SEED))
    v = rng.standard_normal(op.domain_dim)
    v /= np.linalg.norm(v)
    estimate = np.inf
    for k in range(max_iters):
        w = op.apply(v)
        current = float(np.linalg.norm(w))
        if current == 0.0:
            return 0.0
        if abs(current - estimate) <= tol * current:
            return current
        estimate = current
        z = op.apply_adjoint(w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return current
        v = z / nz
    raise ConvergenceError(
        f"power iteration did not settle within {max_iters} iterations",
        last_estimate=estimate,
        last_vector=v,
        iterations=max_iters,
    )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Truncated singular system of a dense operator.

    ``singular_values`` is nonincreasing with every retained value above
    ``rank_tolerance * sigma_1``; ``left_vectors`` (range space) and
    ``right_vectors`` (domain space) hold the paired orthonormal columns.
    Projections onto the range of A (equivalently, the range of A A^T)
    and its orthogonal complement are spanned by the left vectors; the
    domain-side analogue uses the right vectors.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank_tolerance: float

    @property
    def rank(self):
        return self.singular_values.shape[0]

    @property
    def range_dim(self):
        return self.left_vectors.shape[0]

    @property
    def domain_dim(self):
        return self.right_vectors.shape[0]

    def reconstruct(self):
        """Assemble the dense matrix sum(sigma_i u_i v_i^T)."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T

    def range_coefficients(self, f):
        """Coordinates of f against the left vectors."""
        f = _as_vector(f, self.range_dim, "f")
        return self.left_vectors.T @ f

    def project_range(self, f):
        """Orthogonal projection of f onto the range of A."""
        return self.left_vectors @ self.range_coefficients(f)

    def project_domain_complement(self, x):
        """Component of a domain vector orthogonal to the row space."""
        x = _as_vector(x, self.domain_dim, "x")
        return x - self.right_vectors @ (self.right_vectors.T @ x)


def svd_decompose(op, rank_tolerance=DEFAULT_RANK_TOLERANCE):
    """Singular-value decomposition of a dense operator.

    Values at or below ``rank_tolerance * sigma_1`` are truncated into the
    null space.  Dimensions are capped at ``MAX_DENSE_DIM`` (dense
    factorization only).

    Raises
    ------
    UnsupportedKindError
        For non-dense operators; matrix-free operators are never
        materialized on the caller's behalf.
    """
    if getattr(op, "kind", None) != "dense":
        raise UnsupportedKindError(
            f"svd_decompose requires a dense operator, got kind={op.kind!r}"
        )
    rank_tolerance = float(rank_tolerance)
    if rank_tolerance < 0:
        raise InvalidParameterError("rank_tolerance must be >= 0")
    if max(op.range_dim, op.domain_dim) > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"dense factorization capped at {MAX_DENSE_DIM}, "
            f"got {op.range_dim} x {op.domain_dim}"
        )
    u, s, vt = np.linalg.svd(op.matrix, full_matrices=False)
    if s.size and s[0] > 0:
        keep = s > rank_tolerance * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    return SpectralDecomposition(
        singular_values=_readonly(s[keep]),
        left_vectors=_readonly(u[:, keep]),
        right_vectors=_readonly(vt[keep].T),
        rank_tolerance=rank_tolerance,
    )


def diagonal_decomposition(values, rank_tolerance=DEFAULT_RANK_TOLERANCE):
    """Exact singular system of diag(values) without factorization.

    Entries are sorted nonincreasing and truncated like ``svd_decompose``;
    the singular vectors are the matching coordinate axes.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DimensionMismatchError("diagonal needs a 1-d vector of entries")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise InvalidParameterError("diagonal entries must be finite and >= 0")
    n = values.shape[0]
    order = np.argsort(-values, kind="stable")
    s = values[order]
    if s.size and s[0] > 0:
        keep = s > float(rank_tolerance) * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    eye = np.eye(n)
    axes = eye[:, order[keep]]
    return SpectralDecomposition(
        singular_values=_readonly(s[keep]),
        left_vectors=_readonly(axes),
        right_vectors=_readonly(axes),
        rank_tolerance=float(rank_tolerance),
    )


def filter_factors(singular_values, alpha):
    """Damping factors sigma / (sigma^2 + alpha) for alpha > 0.

    Each factor is at most 1 / (2 sqrt(alpha)), with equality exactly at
    sigma = sqrt(alpha); null directions (sigma = 0) are damped to zero.
    """
    a = _check_alpha(alpha)
    s = np.asarray(singular_values, dtype=float)
    if np.any(s < 0):
        raise InvalidParameterError("singular values must be >= 0")
    return s / (s**2 + a)


def null_space_residual(decomp, f):
    """Norm of the component of f orthogonal to the range of A."""
    f = _as_vector(f, decomp.range_dim, "f")
    return float(np.linalg.norm(f - decomp.project_range(f)))


def minimal_norm_solution(decomp, f):
    """Pseudo-inverse solution y with A y = f and y orthogonal to null(A).

    Requires f to lie in the range of A up to the decomposition's rank
    tolerance; intended for constructing and checking exact problems.

    Raises
    ------
    NotInRangeError
        If the component of f outside the range exceeds
        ``rank_tolerance * ||f||``.
    """
    f = _as_vector(f, decomp.range_dim, "f")
    out_of_range = null_space_residual(decomp, f)
    norm_f = float(np.linalg.norm(f))
    if out_of_range > decomp.rank_tolerance * norm_f:
        raise NotInRangeError(
            "data has a null-space component of norm "
            f"{out_of_range:.3e} (limit {decomp.rank_tolerance * norm_f:.3e})",
            residual=out_of_range,
        )
    coeff = decomp.range_coefficients(f)
    return decomp.right_vectors @ (coeff / decomp.singular_values)


def as_dense_matrix(op):
    """Materialize a dense or diagonal operator as a matrix."""
    if op.kind == "dense":
        return np.array(op.matrix)
    if op.kind == "diagonal":
        return np.diag(op.values)
    raise UnsupportedKindError(
        f"cannot materialize operator of kind {op.kind!r}"
    )


def write_dense_text(op, path):
    """Write an operator to the plain-text matrix format.

    First line is ``rows cols``; each following line is one row of
    whitespace-separated reals at 17 significant digits (exact float64
    round-trip).
    """
    m = as_dense_matrix(op)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_dense_text(path):
    """Read a dense operator from the plain-text matrix format."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InvalidParameterError(f"malformed matrix header in {path}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise DimensionMismatchError(
            f"matrix body {data.shape} does not match header ({rows}, {cols})"
        )
    return DenseOperator(data)
