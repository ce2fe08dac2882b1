"""Linear operators, adjoints, and singular-value machinery.

Operators come in three kinds: ``dense`` (an explicit matrix), ``diagonal``
(a square nonnegative diagonal), and ``matrix_free`` (forward/adjoint
callbacks).  All values are immutable after construction and every
operation here is a pure function, so concurrent use needs no locking;
matrix-free callbacks must themselves be re-entrant.

Each kind owns the Tikhonov kernels that the routes in ``tikhonov`` call:
conjugate gradients from ``apply``/``apply_adjoint`` in the base class,
direct forms for dense and diagonal operators.  Each also projects data
onto a singular system for residual matching (``_project``): the SVD or
closed form where one exists, a Golub-Kahan Krylov space otherwise.

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

#: Golub-Kahan steps taken before the first root search; doubled on demand.
_KRYLOV_START = 8


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


def _conjugate_gradients(apply_system, b, cfg, dim):
    """CG for S x = b with S = ``apply_system`` SPD; returns (x, iterations).

    Aims at ``cfg.rel_tolerance * ||b||`` within ``cfg.budget(dim)`` steps.
    Stops on the recurrence residual, then confirms against the true
    residual and restarts if recurrence drift produced a false stop.  A
    confirmation that fails without lowering the true residual of the
    previous one means rounding has stalled the iteration above the
    target, so it raises at once instead of spending the budget.
    """
    rel_tolerance, budget = cfg.rel_tolerance, cfg.budget(dim)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    target = rel_tolerance * bnorm
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    confirmed = np.inf
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
            if true_norm >= confirmed:
                raise ConvergenceError(
                    f"conjugate gradients stagnated at {true_norm / bnorm:.1e} "
                    f"above the target {rel_tolerance:.1e}",
                    iterations=k,
                    achieved_residual=true_norm / bnorm,
                    last_iterate=x,
                )
            confirmed = true_norm
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


class _Projection:
    """Data f in a singular system (sigma_i, u_i, v_i) of an operator A.

    Holds the triple sigma_i, c_i = <u_i, f> and ||P f||^2, with P the
    projection outside the span of the u_i.  That is all residual
    matching needs: with w_i = alpha / (sigma_i^2 + alpha),

        g(alpha) = ||A u_alpha - f||^2 = sum_i w_i^2 c_i^2 + ||P f||^2

    at O(rank) per alpha, and u_alpha = sum_i (1 - w_i) c_i / sigma_i v_i,
    which ``lift`` assembles from its coordinates against the v_i.  A
    full singular system is exact: it is ``exhausted`` and certifies
    every alpha.
    """

    exhausted = True
    steps = 0

    def __init__(self, sigma, coeff, outside_sq, lift):
        self.sigma, self.coeff, self.outside_sq = sigma, coeff, float(outside_sq)
        self._lift = lift

    def discrepancy(self, alpha):
        """g(alpha) and its slope dg/d(ln alpha) = sum_i 2 w_i^2 (1 - w_i) c_i^2."""
        w = alpha / (self.sigma**2 + alpha)
        damped_sq = (w * self.coeff) ** 2
        slope = 2.0 * float(damped_sq @ (1.0 - w))
        return float(damped_sq.sum()) + self.outside_sq, slope

    def _coordinates(self, alpha):
        return self.sigma / (self.sigma**2 + alpha) * self.coeff

    def solution(self, alpha):
        """The regularized solution u_alpha."""
        return self._lift(self._coordinates(alpha))

    def certifies(self, alpha):
        """Whether ``solution(alpha)`` is the minimizer for A itself."""
        return True


def _krylov_append(rows, count, vec, op_norm):
    """Orthogonalize vec against rows[:count]; store it unless it vanishes.

    Two classical Gram-Schmidt passes keep the basis orthonormal to
    rounding.  Returns (rows, norm) with the norm zeroed at breakdown.
    """
    basis = rows[:count]
    for _ in range(2):
        vec = vec - basis.T @ (basis @ vec)
    norm = float(np.linalg.norm(vec))
    if not np.isfinite(norm):
        raise InvalidParameterError("operator output must be finite; it holds inf or nan")
    if norm <= DEFAULT_RANK_TOLERANCE * op_norm or count == rows.shape[1]:
        return rows, 0.0
    if count == rows.shape[0]:
        rows = np.concatenate([rows, np.empty_like(rows)])
    rows[count] = vec / norm
    return rows, norm


class _KrylovProjection(_Projection):
    """Projection of f onto a Golub-Kahan Krylov space, grown on demand.

    k steps of bidiagonalization from u_1 = f / ||f||, with both bases
    kept orthonormal, give A V_k = U_{k+1} B_k with B_k lower bidiagonal
    of size (k+1) x k.  The SVD of the small B_k is a singular system of
    the projected problem; Krylov spaces are shift-invariant, so one
    space serves every alpha.  The projected solution x_k has
    normal-equation residual alpha_{k+1} s_{k+1} v_{k+1}, with s_{k+1} the
    last entry of the projected residual, so
    ||x_k - u_alpha|| <= |alpha_{k+1} s_{k+1}| / alpha; ``certifies`` asks
    that to be at most ``rel_tolerance * ||x_k||``.
    """

    exhausted = False

    def __init__(self, op, f, cfg):
        self._op = op
        self._rel_tolerance = cfg.rel_tolerance
        self._budget = cfg.budget(op.domain_dim)
        self._norm = 0.0  # largest bidiagonal entry: a lower bound on ||A||
        beta = float(np.linalg.norm(f))
        self._u = (f / beta)[None, :]
        self._v = np.empty((1, op.domain_dim))
        self._beta = [beta]
        self._alpha = []
        self._orthogonal_step(op.apply_adjoint(self._u[0]))
        self._grow(min(_KRYLOV_START, self._budget))

    def _orthogonal_step(self, vec):
        """Append v_k, alpha_k from vec = A^T u_k - beta_k v_{k-1}."""
        k = len(self._alpha)
        self._v, alpha = _krylov_append(self._v, k, vec, self._norm)
        self._alpha.append(alpha)
        self._norm = max(self._norm, alpha)
        self.exhausted = alpha == 0.0

    def _grow(self, k):
        """Extend to k steps or to breakdown, then factor B_k."""
        while self.steps < k and not self.exhausted:
            j = self.steps
            vec = self._op.apply(self._v[j]) - self._alpha[j] * self._u[j]
            self._u, beta = _krylov_append(self._u, j + 1, vec, self._norm)
            self._beta.append(beta)
            self._norm = max(self._norm, beta)
            self.steps = j + 1
            if beta == 0.0:
                self._alpha.append(0.0)
                self.exhausted = True
                break
            self._orthogonal_step(self._op.apply_adjoint(self._u[j + 1]) - beta * self._v[j])
        self._factor()

    def _factor(self):
        k = self.steps
        b = np.zeros((k + 1, k))
        b[np.arange(k), np.arange(k)] = self._alpha[:k]
        b[np.arange(1, k + 1), np.arange(k)] = self._beta[1:]
        # The full left factor carries the null vector of B_k^T, so the
        # part of f the Krylov space cannot fit needs no recurrence.
        p, s, qt = np.linalg.svd(b)
        rank = int(np.count_nonzero(s > DEFAULT_RANK_TOLERANCE * s[0])) if k else 0
        c = self._beta[0] * p[0]
        self.sigma, self.coeff = s[:rank], c[:rank]
        self.outside_sq = float(c[rank:] @ c[rank:])
        self._last_row, self._last_outside = p[k, :rank], float(p[k, rank:] @ c[rank:])
        self._alpha_next = self._alpha[k]
        basis, right = self._v[:k], qt[:rank].T
        self._lift = lambda y: basis.T @ (right @ y)

    def certifies(self, alpha):
        w = alpha / (self.sigma**2 + alpha)
        s_last = float(self._last_row @ (w * self.coeff)) + self._last_outside
        bound = abs(self._alpha_next * s_last) / alpha
        return bound <= self._rel_tolerance * np.linalg.norm(self._coordinates(alpha))

    def extend(self):
        """Double the Krylov space; ``ConvergenceError`` past the budget."""
        k = min(2 * self.steps, self._budget)
        if k <= self.steps:
            raise ConvergenceError(
                f"Golub-Kahan bidiagonalization did not certify the root "
                f"within {self._budget} steps",
                iterations=self.steps,
            )
        self._grow(k)


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

    # Tikhonov kernels.  Callers pass a checked alpha ``a``, validated
    # vectors and an ``IterativeSolverConfig``; each kernel returns
    # (vector, iterations), with zero iterations for direct forms.

    def _solve_normal(self, a, b, cfg):
        """x with (A^T A + a I) x = b, by conjugate gradients."""
        return _conjugate_gradients(
            lambda x: self.apply_shifted_normal(a, x), b, cfg, self.domain_dim
        )

    def _solve_primal(self, a, f, cfg):
        """The minimizer for data f from (A^T A + a I) u = A^T f."""
        b = _as_data(self.apply_adjoint(f), self.domain_dim, "A^T f")
        return self._solve_normal(a, b, cfg)

    def _solve_dual(self, a, f, cfg):
        """u = A^T w with (A A^T + a I) w = f, by conjugate gradients."""
        w, iters = _conjugate_gradients(
            lambda w: self.apply(self.apply_adjoint(w)) + a * w, f, cfg, self.range_dim
        )
        return self.apply_adjoint(w), iters

    def _spectrum(self):
        """Singular values if known without iteration, else None."""
        return None

    def _project(self, f, cfg):
        """The ``_Projection`` of data f, here on a Golub-Kahan Krylov space."""
        return _KrylovProjection(self, f, cfg)

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

    # Each route has its own QR form: going through A^T A, A A^T, or even
    # the primal's A^T f loses more than the 1e-8 agreement budget between
    # routes on rank-deficient shapes at small alpha (measured).

    def _solve_normal(self, a, b, cfg):
        top = np.zeros(self.range_dim)
        return _dense_stacked_solve(self.matrix, a, top, b / np.sqrt(a)), 0

    def _solve_primal(self, a, f, cfg):
        u = _dense_stacked_solve(self.matrix, a, f, np.zeros(self.domain_dim))
        return u, 0

    def _solve_dual(self, a, f, cfg):
        """A^T (A A^T + a I)^{-1} f without forming the inverse.

        With the QR factorization [A^T; sqrt(a) I] = Q R, the fitted value
        of the associated least-squares problem stacks [A^T w; sqrt(a) w],
        whose leading rows are exactly u = A^T w.  Reading u off the
        projection Q Q^T [0; f / sqrt(a)] sidesteps the intermediate w,
        whose norm scales like ||f|| / a when f has a large component
        outside the range of A.
        """
        m, n = self.matrix.shape
        stacked = np.vstack([self.matrix.T, np.sqrt(a) * np.eye(m)])
        rhs = np.concatenate([np.zeros(n), f / np.sqrt(a)])
        q = np.linalg.qr(stacked)[0]
        return q[:n, :] @ (q.T @ rhs), 0

    def _spectrum(self):
        return svd_decompose(self).singular_values

    def _project(self, f, cfg):
        if max(self.range_dim, self.domain_dim) > MAX_DENSE_DIM:
            return super()._project(f, cfg)
        return svd_decompose(self)._project(f, cfg)


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

    def _solve_normal(self, a, b, cfg):
        return b / (self.values**2 + a), 0

    def _solve_dual(self, a, f, cfg):
        return self.values * (f / (self.values**2 + a)), 0

    def _spectrum(self):
        return self.values

    def _project(self, f, cfg):
        s = self.values
        keep = s > DEFAULT_RANK_TOLERANCE * s.max()

        def lift(y):
            u = np.zeros(self.domain_dim)
            u[keep] = y
            return u

        return _Projection(s[keep], f[keep], f[~keep] @ f[~keep], lift)


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

    def _project(self, f, cfg=None):
        """The ``_Projection`` of data f: U^T f and ||f - U U^T f||^2 once."""
        coeff = self.range_coefficients(f)
        outside = f - self.left_vectors @ coeff
        return _Projection(
            self.singular_values, coeff, outside @ outside, self.right_vectors.__matmul__
        )


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
    values = DiagonalOperator(values).values
    order = np.argsort(-values, kind="stable")
    s = values[order]
    if s.size and s[0] > 0:
        keep = s > float(rank_tolerance) * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    kept = order[keep]
    # Scattered into (n, rank): slicing an identity costs O(n^2) memory.
    axes = np.zeros((values.shape[0], kept.size))
    axes[kept, np.arange(kept.size)] = 1.0
    axes.setflags(write=False)
    return SpectralDecomposition(
        singular_values=_readonly(s[keep]),
        left_vectors=axes,
        right_vectors=axes,
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
