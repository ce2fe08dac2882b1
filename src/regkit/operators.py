"""Linear operators, adjoints, and singular-value machinery.

Operators come in three kinds: ``dense`` (an explicit matrix), ``diagonal``
(a square nonnegative diagonal), and ``matrix_free`` (forward/adjoint
callbacks).  All values are immutable after construction and every
operation here is a pure function, so concurrent use needs no locking;
matrix-free callbacks must themselves be re-entrant.

Each kind owns the Tikhonov kernels that the routes in ``tikhonov`` call:
direct forms for dense and diagonal operators, and in the base class
readouts of one Golub-Kahan space grown until it certifies alpha.  Each
also owns its singular
system (``_decompose``): a factored matrix up to ``MAX_DENSE_DIM``, sorted
diagonal entries, or none.  Every other reader goes through it, including
residual matching (``_project``), which uses a Golub-Kahan Krylov space
when there is none.

Scalars are real throughout.  The singular system provides the spectral
calculus used elsewhere: filter factors, projections onto the range and its
complement, and minimal-norm solutions.  An exactly symmetric matrix gets
it from its eigendecomposition A = Q diag(lambda) Q^T, as
sigma_i = |lambda_i|, v_i = q_i and u_i = sign(lambda_i) q_i; any other
matrix from a general SVD.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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

#: Golub-Kahan steps taken before the first root search.
_KRYLOV_START = 8

#: A Gram-Schmidt pass that leaves less than this share of a vector's norm
#: is repeated.
_DGKS_RATIO = 1.0 / math.sqrt(2.0)


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


def _check_rank_tolerance(rank_tolerance):
    t = float(rank_tolerance)
    if not np.isfinite(t) or t < 0.0:
        raise InvalidParameterError(f"rank_tolerance must be finite and >= 0, got {t}")
    return t


def _kept(s, rank_tolerance):
    """Mask of the nonincreasing values s that exceed ``rank_tolerance * s[0]``."""
    if s.size and s[0] > 0:
        return s > rank_tolerance * s[0]
    return np.zeros(s.shape, dtype=bool)


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

    One classical Gram-Schmidt pass, and a second only when the first
    shrank vec below 1/sqrt(2) of its norm: the test of Daniel, Gragg,
    Kaufman and Stewart (Math. Comp. 30, 1976).  A pass that keeps more
    of the norm than that leaves vec orthogonal to the basis to a small
    multiple of rounding, so the basis stays orthonormal to working
    precision either way.  Returns (rows, norm) with the norm zeroed at
    breakdown.
    """
    basis = rows[:count]
    before = math.sqrt(vec @ vec)
    vec = vec - (basis @ vec) @ basis
    norm = math.sqrt(vec @ vec)
    if norm < before * _DGKS_RATIO:
        vec = vec - (basis @ vec) @ basis
        norm = math.sqrt(vec @ vec)
    if not math.isfinite(norm):
        raise InvalidParameterError("operator output must be finite; it holds inf or nan")
    if norm <= DEFAULT_RANK_TOLERANCE * op_norm or count == rows.shape[1]:
        return rows, 0.0
    if count == rows.shape[0]:
        rows = np.concatenate([rows, np.empty_like(rows)])
    rows[count] = vec / norm
    return rows, norm


class _DampedLSQR:
    """Damped LSQR's rotations of a stored bidiagonal.

    LSQR (Paige & Saunders, ACM TOMS 8, 1982) with damp = sqrt(alpha)
    solves min ||A x - f||^2 + alpha ||x||^2 on the Golub-Kahan space of
    f through the QR factorization of [B_k; sqrt(alpha) I], one column at
    a time, by Givens rotations (Elden, BIT 17, 1977).  ``rotate`` takes
    beta_{k+1} and alpha_{k+1}, the next column of B_k, and returns the
    new row of the upper bidiagonal R with its rotated right-hand side,
    and the two rotations.  ``step`` returns, at O(1) cost and without
    forming a vector, the normal-equation residual
    ||A^T (f - A x_k) - alpha x_k|| = alpha_{k+1} |tau_k| of the iterate
    x_k, and ||x_k|| from the LQ factorization of R.
    """

    def __init__(self, alpha, alpha_1, beta_1):
        self._damp_sq = alpha
        self._rhobar, self.phibar = alpha_1, beta_1
        self._cs2, self._sn2, self._z, self._xxnorm = -1.0, 0.0, 0.0, 0.0

    def rotate(self, beta, alpha_next):
        """((rho_k, theta_{k+1}, phi_k), (cbar, sbar, psi_k, c, s)) for column k.

        (cbar, sbar) rotates the damping row sqrt(alpha) e_k into row k,
        leaving psi_k in the damping row's right-hand side; the reflection
        (c, s) then takes beta_{k+1} out of row k+1, whose right-hand side
        becomes ``phibar``.
        """
        rhobar1 = math.sqrt(self._rhobar**2 + self._damp_sq)
        cbar, sbar = self._rhobar / rhobar1, math.sqrt(self._damp_sq) / rhobar1
        psi = -sbar * self.phibar
        phibar = cbar * self.phibar
        rho = math.hypot(rhobar1, beta)
        cs, sn = rhobar1 / rho, beta / rho
        self._rhobar = -cs * alpha_next
        phi, self.phibar = cs * phibar, sn * phibar
        return (rho, sn * alpha_next, phi), (cbar, sbar, psi, cs, sn)

    def step(self, beta, alpha_next):
        (rho, theta, phi), (*_, sn) = self.rotate(beta, alpha_next)
        # Rotate theta away on the right; the rotated system gives ||x_k||.
        gambar = -self._cs2 * rho
        rhs = phi - self._sn2 * rho * self._z
        xnorm = math.sqrt(self._xxnorm + (rhs / gambar) ** 2)
        gamma = math.hypot(gambar, theta)
        self._cs2, self._sn2 = gambar / gamma, theta / gamma
        self._z = rhs / gamma
        self._xxnorm += self._z**2
        return alpha_next * abs(sn * phi), xnorm


class _KrylovProjection:
    """Projection of f onto a Golub-Kahan Krylov space, grown on demand.

    k steps of bidiagonalization from u_1 = f / ||f||, with both bases
    kept orthonormal by full reorthogonalization (``_krylov_append``), give
    A V_k = U_{k+1} B_k with B_k lower bidiagonal of size (k+1) x k.
    Krylov spaces are shift-invariant, so one space serves every alpha:
    the projected problem min ||B_k y - beta_1 e_1||^2 + alpha ||y||^2 is
    solved per alpha by one O(k) sweep of Givens rotations over the stored
    bidiagonal (``_sweep``), with no factorization of B_k.  g(alpha) is
    read from the projected residual r, which is why U must stay
    orthonormal to working precision.  The projected solution x_k = V_k y
    has normal-equation residual alpha_{k+1} s_{k+1} v_{k+1}, with
    s_{k+1} = r_{k+1}, so ||x_k - u_alpha|| <= |alpha_{k+1} s_{k+1}| /
    alpha; ``certifies`` asks that to be at most ``rel_tolerance *
    ||x_k||``, and it alone accepts a root or a solve.  ``extend`` grows the
    space to the size damped LSQR says a rejected alpha needs, or doubles it.
    """

    exhausted = False

    def __init__(self, op, f, cfg, alpha=None):
        """The space of f, grown until it certifies ``alpha`` if one is given."""
        self._op = op
        self._rel_tolerance = cfg.rel_tolerance
        self._budget = cfg.budget(op.domain_dim)
        self._norm = 0.0  # largest bidiagonal entry: a lower bound on ||A||
        self._sized = False  # whether the LSQR monitor chose the current size
        self.steps = 0
        beta = math.sqrt(f @ f)
        self._u = (f / beta)[None, :]
        self._v = np.empty((1, op.domain_dim))
        self._beta = [beta]
        self._alpha = []
        self._orthogonal_step(op.apply_adjoint(self._u[0]))
        self._grow(min(_KRYLOV_START, self._budget))
        while alpha is not None and not self.certifies(alpha):
            self.extend(alpha)

    def _orthogonal_step(self, vec):
        """Append v_k, alpha_k from vec = A^T u_k - beta_k v_{k-1}."""
        k = len(self._alpha)
        self._v, alpha = _krylov_append(self._v, k, vec, self._norm)
        self._alpha.append(alpha)
        self._norm = max(self._norm, alpha)
        self.exhausted = alpha == 0.0

    def _step(self):
        """One Golub-Kahan step: u_{k+1}, beta_{k+1}, then v_{k+1}, alpha_{k+1}."""
        j = self.steps
        vec = self._op.apply(self._v[j]) - self._alpha[j] * self._u[j]
        self._u, beta = _krylov_append(self._u, j + 1, vec, self._norm)
        self._beta.append(beta)
        self._norm = max(self._norm, beta)
        self.steps = j + 1
        if beta == 0.0:
            self._alpha.append(0.0)
            self.exhausted = True
            return
        self._orthogonal_step(self._op.apply_adjoint(self._u[j + 1]) - beta * self._v[j])

    def _grow(self, k):
        """Extend to k steps or to breakdown, then fix B_k (``_factor``)."""
        while self.steps < k and not self.exhausted:
            self._step()
        self._factor()

    def _factor(self):
        """Fix the projected problem at the current k.

        Stores the columns (beta_{j+1}, alpha_{j+1}), j = 1..k, which with
        alpha_1 and beta_1 are B_k and alpha_{k+1}, and the basis V_k that
        lifts y.  Each alpha then costs one ``_sweep``.
        """
        k = self.steps
        self._columns = list(zip(self._beta[1 : k + 1], self._alpha[1 : k + 1]))
        self._alpha_next = self._alpha[k]
        self._basis = self._v[:k]
        self._swept = None

    def _sweep(self, alpha):
        """(alpha, y, g, slope, s_{k+1}) at alpha; the last sweep is kept.

        One pass of damped LSQR's rotations gives the QR factorization of
        [B_k; sqrt(alpha) I]; y follows by back substitution on R.  The
        rotated residual is zero but for phibar_{k+1} in row k+1 and psi_j
        in the damping rows, and applying the rotations backwards to it
        gives r = beta_1 e_1 - B_k y without forming that difference,
        which cancels when r is small against beta_1.  With R^T R =
        B_k^T B_k + alpha I, dg/d(ln alpha) = 2 alpha^2 ||R^{-T} y||^2.
        """
        if self._swept is not None and self._swept[0] == alpha:
            return self._swept
        lsqr = _DampedLSQR(alpha, self._alpha[0], self._beta[0])
        rotated = [lsqr.rotate(beta, a) for beta, a in self._columns]
        k = len(rotated)
        y = [0.0] * k
        later = 0.0
        for j in range(k - 1, -1, -1):
            rho, theta, phi = rotated[j][0]
            y[j] = later = (phi - theta * later) / rho
        w_sq, w, theta = 0.0, 0.0, 0.0
        for ((rho, theta_next, _), _), y_j in zip(rotated, y):
            w = (y_j - theta * w) / rho
            w_sq += w * w
            theta = theta_next
        t, r = lsqr.phibar, []  # r from its last entry, s_{k+1}, to its first
        for _, (cbar, sbar, psi, cs, sn) in reversed(rotated):
            r.append(-cs * t)
            t = cbar * sn * t - sbar * psi
        r.append(t)
        g = math.fsum(v * v for v in r)
        self._swept = (alpha, np.array(y), g, 2.0 * alpha * alpha * w_sq, r[0])
        return self._swept

    def discrepancy(self, alpha):
        """g(alpha) = ||r||^2 and its slope dg/d(ln alpha)."""
        return self._sweep(alpha)[2:4]

    def solution(self, alpha):
        """The projected solution x_k = V_k y."""
        return self._sweep(alpha)[1] @ self._basis

    def _error_bound(self, alpha):
        """The certified bound |alpha_{k+1} s_{k+1}| / alpha on ||x_k - u_alpha||, over ||x_k||."""
        _, y, _, _, s_last = self._sweep(alpha)
        return abs(self._alpha_next * s_last) / (alpha * math.sqrt(y @ y))

    def certifies(self, alpha):
        """Whether ||x_k - u_alpha|| <= ``rel_tolerance`` ||x_k||: always once exhausted."""
        return self.exhausted or self._error_bound(alpha) <= self._rel_tolerance

    def floor(self):
        """g(0+) = beta_1^2 / ||z||^2, with z the null vector of B_k^T.

        z_1 = 1 and z_{j+1} = -(alpha_j / beta_{j+1}) z_j; the ratios are
        summed in logs, since |z_j| can overflow.  Needs every alpha_j and
        beta_{j+1} nonzero, which holds until the space is exhausted.
        """
        k = self.steps
        ratios = np.log(self._alpha[:k]) - np.log(self._beta[1 : k + 1])
        logs = np.concatenate(([0.0], np.cumsum(ratios)))
        top = float(logs.max())
        scaled_sq = float(np.exp(2.0 * (logs - top)).sum())  # ||z||^2 / e^(2 top)
        return self._beta[0] ** 2 * math.exp(-2.0 * top) / scaled_sq

    def extend(self, alpha=None):
        """Grow the space after ``certifies`` rejected ``alpha``, a root or a fixed alpha.

        Damped LSQR with damp = sqrt(alpha) is replayed over the stored
        bidiagonal and then run alongside new Golub-Kahan steps, one at a
        time, until its normal-equation residual alpha_{k+1} |tau_k| meets
        the certificate's own limit ``rel_tolerance * alpha * ||x_k||``,
        the space is exhausted, or the budget is spent; B_k is fixed once
        at the end.  That residual is the |alpha_{k+1} s_{k+1}| the
        certificate bounds, but the monitor only sizes the space: the root
        moves on it, and ``certifies`` alone accepts a root.  Without a
        root (``alpha`` None), or when the certificate failed on a space
        the monitor had sized, the space doubles instead, which keeps the
        number of root searches logarithmic in the final size.
        ``ConvergenceError`` past the budget carries ``achieved_residual``, the
        certified relative error at ``alpha``, and x_k as ``last_iterate``.
        """
        if self.steps >= self._budget:
            raise ConvergenceError(
                f"Golub-Kahan bidiagonalization did not certify the solution "
                f"within {self._budget} steps",
                iterations=self.steps,
                achieved_residual=math.nan if alpha is None else self._error_bound(alpha),
                last_iterate=None if alpha is None else self.solution(alpha),
            )
        if alpha is None or self._sized:
            self._sized = False
            self._grow(min(2 * self.steps, self._budget))
            return
        self._sized = True
        monitor = _DampedLSQR(alpha, self._alpha[0], self._beta[0])
        for j in range(1, self.steps + 1):
            monitor.step(self._beta[j], self._alpha[j])
        limit = self._rel_tolerance * alpha
        while not self.exhausted and self.steps < self._budget:
            self._step()
            residual, xnorm = monitor.step(self._beta[self.steps], self._alpha[self.steps])
            if residual <= limit * xnorm:
                break
        self._factor()


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
    # nonzero vectors and an ``IterativeSolverConfig``; each kernel returns
    # (vector, iterations), with zero iterations for direct forms.

    def _solve_normal(self, a, b, cfg):
        """x with (A^T A + a I) x = b: damped LSQR on [A; c I] x ~ [0; b / c].

        c^2 = a / 2 and damping a / 2 add up to a, and keep the stacked
        matrix's smallest singular value at least sqrt(a / 2).
        """
        m, n, c = self.range_dim, self.domain_dim, math.sqrt(a / 2.0)
        stacked = MatrixFreeOperator(
            m + n, n,
            lambda x: np.concatenate([self.apply(x), c * x]),
            lambda z: self.apply_adjoint(z[:m]) + c * z[m:],
        )
        return stacked._solve_primal(a / 2.0, np.concatenate([np.zeros(m), b / c]), cfg)

    def _solve_primal(self, a, f, cfg):
        """The minimizer x_k = V_k y for data f, by damped LSQR."""
        projection = _KrylovProjection(self, f, cfg, a)
        return projection.solution(a), projection.steps

    def _solve_dual(self, a, f, cfg):
        """u = A^T (A A^T + a I)^{-1} f: the primal map, so the same certified x_k."""
        return self._solve_primal(a, f, cfg)

    def _decompose(self, rank_tolerance):
        """The singular system truncated at ``rank_tolerance``, or None without one."""
        return None

    def _project(self, f, cfg):
        """The ``_Projection`` of data f on the singular system, else on a Krylov space."""
        decomp = self._decompose(DEFAULT_RANK_TOLERANCE)
        if decomp is None:
            return _KrylovProjection(self, f, cfg)
        return decomp._project(f)

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

    def _decompose(self, rank_tolerance):
        """The eigh or SVD factorization of the matrix; None above ``MAX_DENSE_DIM``."""
        if max(self.range_dim, self.domain_dim) > MAX_DENSE_DIM:
            return None
        matrix = self.matrix
        if matrix.shape[0] == matrix.shape[1] and np.array_equal(matrix, matrix.T):
            # On hilbert, deriv2 and phillips at n = 1024 (one OpenBLAS thread,
            # 2-core x86 VM) eigh took 240-330 ms and the SVD 670-800 ms.
            lam, q = np.linalg.eigh(matrix)
            order = np.argsort(-np.abs(lam), kind="stable")
            kept = order[_kept(np.abs(lam[order]), rank_tolerance)]
            s, right = np.abs(lam[kept]), q[:, kept]
            left = right * np.where(lam[kept] < 0, -1.0, 1.0)
        else:
            u, s, vt = np.linalg.svd(matrix, full_matrices=False)
            keep = _kept(s, rank_tolerance)
            s, left, right = s[keep], u[:, keep], vt[keep].T
        for factor in (s, left, right):
            factor.setflags(write=False)
        return SpectralDecomposition(
            singular_values=s,
            left_vectors=left,
            right_vectors=right,
            rank_tolerance=rank_tolerance,
        )


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

    def _decompose(self, rank_tolerance):
        """The entries sorted nonincreasing, with their coordinate axes as indices."""
        order = np.argsort(-self.values, kind="stable")
        s = self.values[order]
        keep = _kept(s, rank_tolerance)
        axes = order[keep]
        axes.setflags(write=False)
        return _AxesDecomposition(
            singular_values=_readonly(s[keep]),
            axes=axes,
            dim=self.domain_dim,
            rank_tolerance=rank_tolerance,
        )


class MatrixFreeOperator(LinearOperator):
    """Operator given by forward/adjoint callbacks; never materialized.

    The callbacks receive and return 1-d float arrays.  Their output
    shapes are checked on every call, so a mismatched callback fails
    loudly instead of corrupting downstream algebra.
    """

    kind = "matrix_free"

    def __init__(self, range_dim, domain_dim, forward, adjoint):
        super().__init__(range_dim, domain_dim)
        for label, callback in (("forward", forward), ("adjoint", adjoint)):
            if not callable(callback):
                raise InvalidParameterError(
                    f"{label} must be callable, got {type(callback).__name__}"
                )
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Truncated singular system of a dense or diagonal operator.

    ``singular_values`` is nonincreasing with every retained value above
    ``rank_tolerance * sigma_1``; ``left_vectors`` (range space) and
    ``right_vectors`` (domain space) hold the paired orthonormal columns.
    Projections onto the range of A (equivalently, the range of A A^T)
    and its orthogonal complement are spanned by the left vectors; the
    domain-side analogue uses the right vectors.

    The decomposition of a diagonal operator (``DiagonalOperator._decompose``)
    stores only the indices of its kept entries: its singular vectors are
    coordinate axes, so every product with them is a gather or a scatter.
    It takes O(n) memory and O(n) work per alpha selection, and builds
    the dense (n, rank) vectors only when a caller reads them.

    Two decompositions are equal only if they are the same object, and the
    repr leaves the vectors out, so neither builds them.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)
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

    # Products with the singular factors: U c, U^T f, V c and V^T x.
    # ``_AxesDecomposition`` does them by gather and scatter.

    def _left(self, c):
        return self.left_vectors @ c

    def _left_t(self, f):
        return self.left_vectors.T @ f

    def _right(self, c):
        return self.right_vectors @ c

    def _right_t(self, x):
        return self.right_vectors.T @ x

    def reconstruct(self):
        """Assemble the dense matrix sum(sigma_i u_i v_i^T)."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T

    def range_coefficients(self, f):
        """Coordinates of f against the left vectors."""
        return self._left_t(_as_vector(f, self.range_dim, "f"))

    def project_range(self, f):
        """Orthogonal projection of f onto the range of A."""
        return self._left(self.range_coefficients(f))

    def project_domain_complement(self, x):
        """Component of a domain vector orthogonal to the row space."""
        x = _as_vector(x, self.domain_dim, "x")
        return x - self._right(self._right_t(x))

    def _project(self, f, cfg=None):
        """The ``_Projection`` of data f: U^T f, and ||f - U U^T f||^2 once.

        Left vectors that span the whole range leave no part of f outside.
        """
        coeff = self.range_coefficients(f)
        outside_sq = 0.0
        if self.rank < self.range_dim:
            outside = f - self._left(coeff)
            outside_sq = outside @ outside
        return _Projection(self.singular_values, coeff, outside_sq, self._right)


class _AxesDecomposition(SpectralDecomposition):
    """Singular system of diag(values): u_i = v_i = e_{axes[i]}.

    Holds the kept indices ``axes`` in place of the dense (n, rank) factor.
    Products by the 0/1 factor are exact, so the gathers and scatters give
    the same bits as the dense products.
    """

    def __init__(self, singular_values, axes, dim, rank_tolerance):
        # Straight into the instance dict, past the frozen __setattr__.
        vars(self).update(
            singular_values=singular_values, rank_tolerance=rank_tolerance, _axes=axes, _dim=dim
        )

    @functools.cached_property
    def left_vectors(self):
        vectors = np.zeros((self._dim, self.rank))
        vectors[self._axes, np.arange(self.rank)] = 1.0
        vectors.setflags(write=False)
        return vectors

    @property
    def right_vectors(self):
        return self.left_vectors

    @property
    def range_dim(self):
        return self._dim

    domain_dim = range_dim

    def _gather(self, x):
        return x[self._axes]

    def _scatter(self, c):
        out = np.zeros(self._dim)
        out[self._axes] = c
        return out

    _left_t = _right_t = _gather
    _left = _right = _scatter

    def reconstruct(self):
        out = np.zeros((self._dim, self._dim))
        out[self._axes, self._axes] = self.singular_values
        return out


def svd_decompose(op, rank_tolerance=DEFAULT_RANK_TOLERANCE):
    """Singular-value decomposition of a dense operator.

    An exactly symmetric matrix (``A == A.T`` entry for entry) is factored
    by ``np.linalg.eigh``: with A = Q diag(lambda) Q^T, sigma_i = |lambda_i|,
    v_i = q_i and u_i = sign(lambda_i) q_i, ordered by nonincreasing
    |lambda_i|.  Every other matrix goes through ``np.linalg.svd``.
    Values at or below ``rank_tolerance * sigma_1`` are truncated into the
    null space.  Dimensions are capped at ``MAX_DENSE_DIM`` (dense
    factorization only).

    Raises
    ------
    UnsupportedKindError
        For non-dense operators; matrix-free operators are never
        materialized on the caller's behalf.
    SizeLimitError
        Above ``MAX_DENSE_DIM``.
    """
    if not isinstance(op, DenseOperator):
        raise UnsupportedKindError(
            f"svd_decompose requires a dense operator, got {type(op).__name__}"
        )
    decomp = op._decompose(_check_rank_tolerance(rank_tolerance))
    if decomp is None:
        raise SizeLimitError(
            f"dense factorization capped at {MAX_DENSE_DIM}, "
            f"got {op.range_dim} x {op.domain_dim}"
        )
    return decomp


def diagonal_decomposition(values, rank_tolerance=DEFAULT_RANK_TOLERANCE):
    """Exact singular system of diag(values) without factorization.

    Entries are sorted nonincreasing and truncated like ``svd_decompose``;
    the singular vectors are the matching coordinate axes, held as indices.
    """
    return DiagonalOperator(values)._decompose(_check_rank_tolerance(rank_tolerance))


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
    return decomp._right(coeff / decomp.singular_values)


def as_dense_matrix(op):
    """Materialize a dense or diagonal operator as a matrix."""
    if isinstance(op, DenseOperator):
        return np.array(op.matrix)
    if isinstance(op, DiagonalOperator):
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
