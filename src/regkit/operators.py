"""Linear operators, adjoints, and singular-value machinery.

Operators come in six kinds: ``dense`` (an explicit matrix), ``diagonal``
(a square nonnegative diagonal), ``gradient`` (n times the forward
difference on n points, in O(n)), ``green`` (the midpoint rule for the
inverse of -d^2/dt^2 with zero boundary values, in O(n log n)),
``toeplitz`` (a Toeplitz matrix, or a Hankel one as its rows reversed,
held by its 2n - 1 diagonal values and applied by FFT in O(n log n)), and
``matrix_free`` (forward/adjoint callbacks).  All values are immutable
after construction and every operation here is a pure function, so
concurrent use needs no locking; matrix-free callbacks must themselves be
re-entrant.

Every kind but ``matrix_free`` builds its entries in one place,
``_rows(start, stop)``, read by ``matrix``, kept once read, by
``as_dense_matrix`` and by ``_matrix_system``, which factors dense and
Toeplitz operators, the latter mostly without the matrix.  Each kind
owns one singular system, ``_system``, untruncated and built once on
first read: a factored matrix up to ``MAX_DENSE_DIM``, sorted diagonal
entries, the closed-form cosine and sine transforms of the gradient
and Green's operators, or none.  Theorem 1 bounds every filter
factor by 1 / (2 sqrt(alpha)), so no sigma > 0 is dropped for a Tikhonov
solve; ``make_problem`` attaches the same object.  Only at alpha = 0 is
a system truncated: ``svd_decompose`` and ``diagonal_decomposition``
factor one at a rank tolerance (``_decompose``).
The Tikhonov kernels that the routes in ``tikhonov`` call live in the
base class, and so does residual matching (``_project``).  Each reads
``_system``, or, when there is none, one Golub-Kahan space grown until
it certifies alpha.  A dense operator's first selection on an exactly
symmetric matrix takes that space too, capped, before its system is
built (``DenseOperator._project``).  Only dense operators override the
kernels, with QR forms on the matrix, so that the routes stay
independent checks of each other and of the other kinds.  The
Krylov bases stay orthonormal to working precision, with Gram-Schmidt
only where an O(1) bound on the loss of orthogonality asks for it; one
method, ``_KrylovProjection._append``, bounds, measures, orthogonalizes
and stores every basis vector, and one loop, ``_rotations``, computes
every damped-LSQR rotation of the space.  Each system sets its shape once, and
the sorted entries and closed forms build dense vectors only when read.
A dense matrix or vector set of any kind is refused above
``MAX_DENSE_DIM`` before it is allocated (``_check_dense_dim``).

Scalars are real throughout: complex input is refused, not cast.  The
singular system provides the spectral calculus used elsewhere: filter
factors, projections onto the range and its complement, and minimal-norm
solutions.  One class, ``_FactoredDecomposition``, holds every factored
matrix's system.  An exactly symmetric block gets it from its
eigendecomposition A = Q diag(lambda) Q^T, as sigma_i = |lambda_i|, v_i
= q_i and u_i = sign(lambda_i) q_i, with the q_i held once and their
signs beside them; any other from a general SVD.  A matrix of any shape
that its reversal J maps to itself or its negative, ``A[::-1, ::-1] ==
+-A`` bit for bit, is factored as two half-size blocks, in the bases of
vectors even and odd under J, for a quarter of the flops; each takes
eigh when A is exactly symmetric with the + sign, else the SVD.  One
cutter, ``_reflection_blocks``, cuts them band by band from the top rows
that ``_rows`` reads.  Any other matrix is one block, and first tries
one random block (``_sketch``), in O(n^2 r) when the numerical rank r
above n eps sigma_1 is below its width, as for hilbert; a part above
that limit which its fixed-seed probes cannot see may be left out.
"""

from __future__ import annotations

import functools
import itertools
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
    "GradientOperator",
    "GreenOperator",
    "ToeplitzOperator",
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

#: Fixed seed for the power-iteration start vector and the random block of
#: ``_sketch`` (reproducible runs).
_POWER_START_SEED = 0x5EED

#: Columns of ``_sketch``'s random block, tried on matrices at least 8 times as wide.
_SKETCH_WIDTH = 32

#: Gaussian probes whose residuals bound what the block misses (``_sketch``).
_SKETCH_PROBES = 10

#: Rows per band, and tile width, when ``_factor`` sorts and transposes
#: eigenvectors in place, when reflection blocks are cut, and when a
#: Toeplitz operator builds its rows for them.
_BAND = 64

#: Golub-Kahan steps taken before the first root search.
_KRYLOV_START = 8

#: A Gram-Schmidt pass that leaves less than this share of a vector's norm
#: is repeated.
_DGKS_RATIO = 1.0 / math.sqrt(2.0)

#: Largest |<q, q_i>| a stored Golub-Kahan vector q keeps against the earlier
#: vectors of its basis.  A vector whose bound passes it is measured, and
#: orthogonalized if it measures past a tenth of it: a bound restarted from
#: more than that would pass the limit again within a step or two.
_LOSS_LIMIT = 1e-14

_EPS = float(np.finfo(float).eps)

_TINY = float(np.finfo(float).tiny)  # the least normal number

_FLOAT = np.dtype(float)

#: Rounding a Golub-Kahan half-step adds to <vec, q_i>, per unit of the
#: largest bidiagonal entry: eps ||B_k||, with ||B_k|| up to twice that
#: entry, and a factor 2 for the operator's own rounding.
_ROUNDING = 4.0 * _EPS


def _real(x, label):
    """x as an array, refused if complex: a cast to float would drop the imaginary part."""
    a = np.asarray(x)
    if a.dtype.kind == "c":
        raise InvalidParameterError(f"{label} must be real; it holds complex entries")
    return a


def _norm(v):
    """||v||: sqrt(v @ v) wherever that is a normal number, so with its bits.

    Elsewhere v is first divided by the power of two at its largest
    entry, which is exact, so the norm neither overflows nor underflows
    while it is representable.
    """
    sq = float(np.vdot(v, v))  # the same bits as v @ v, but no warning where it overflows
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    top = float(np.abs(v).max()) if v.size else 0.0
    if top == 0.0 or not math.isfinite(top):
        return top
    unit = 2.0 ** (math.frexp(top)[1] - 1)
    w = v / unit
    return math.sqrt(np.vdot(w, w)) * unit


def _as_vector(x, dim, label):
    v = np.asarray(x)
    if v.dtype is not _FLOAT:  # float64 input, the usual case, is neither tested nor cast
        v = np.asarray(_real(v, label), dtype=float)
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


def _as_real(value, name):
    """float(value), or InvalidParameterError naming ``name`` where float() raises."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from None


def _check_alpha(alpha):
    a = _as_real(alpha, "alpha")
    if not np.isfinite(a) or a <= 0.0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    return a


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_rank_tolerance(rank_tolerance):
    t = _as_real(rank_tolerance, "rank_tolerance")
    if not np.isfinite(t) or t < 0.0:
        raise InvalidParameterError(f"rank_tolerance must be finite and >= 0, got {t}")
    return t


def _check_count(value, name, least=1):
    """``value`` as an int if it is an integer >= ``least`` (5.0 counts), else InvalidParameterError."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = least - 1
    if count < least or count != value:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


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
    every alpha.  ``outside_sq`` is g(0+).
    """

    exhausted = True
    steps = 0
    path = "spectral"

    def __init__(self, sigma, coeff, outside_sq, lift):
        self.sigma, self.coeff, self.outside_sq = sigma, coeff, float(outside_sq)
        self._lift = lift

    def discrepancy(self, alpha):
        """g(alpha) and its slope dg/d(ln alpha) = sum_i 2 w_i^2 (1 - w_i) c_i^2."""
        w = alpha / (self.sigma**2 + alpha)
        damped_sq = (w * self.coeff) ** 2
        slope = 2.0 * float(damped_sq @ (1.0 - w))
        return float(damped_sq.sum()) + self.outside_sq, slope

    def moments(self):
        """||f||^2 - g(0+) = sum_i c_i^2 and ||A^T f||^2 = sum_i sigma_i^2 c_i^2."""
        scaled = self.sigma * self.coeff
        return float(self.coeff @ self.coeff), float(scaled @ scaled)

    def _coordinates(self, alpha):
        return self.sigma / (self.sigma**2 + alpha) * self.coeff

    def solution(self, alpha):
        """The regularized solution u_alpha."""
        return self._lift(self._coordinates(alpha))

    def certifies(self, alpha):
        """Whether ``solution(alpha)`` is the minimizer for A itself."""
        return True


class _KrylovProjection:
    """Projection of f onto a Golub-Kahan Krylov space, grown on demand.

    k steps of bidiagonalization from u_1 = f / ||f|| give A V_k =
    U_{k+1} B_k with B_k lower bidiagonal of size (k+1) x k.  Both bases
    are kept orthonormal to working precision, but Gram-Schmidt runs only
    where orthogonality is lost (``_append``).  Krylov spaces are
    shift-invariant, so one space serves every alpha: the projected
    problem min ||B_k y - beta_1 e_1||^2 + alpha ||y||^2 is solved per
    alpha by one O(k) sweep of Givens rotations over the stored
    bidiagonal (``_sweep``), with no factorization of B_k.  g(alpha) is
    read from the projected residual r, which is why U must stay
    orthonormal to working precision.  The projected solution x_k = V_k y
    has normal-equation residual alpha_{k+1} s_{k+1} v_{k+1}, with
    s_{k+1} = r_{k+1}, so ||x_k - u_alpha|| <= |alpha_{k+1} s_{k+1}| /
    alpha; ``certifies`` asks that to be at most ``rel_tolerance *
    ||x_k||``, and it alone accepts a root or a solve.  ``extend`` grows the
    space to the size damped LSQR says a rejected alpha needs, or doubles it.
    One loop, ``_rotations``, computes damped LSQR's rotations for all
    three: the sweep, the certificate's s_{k+1}, which the sweep returns,
    and the sizing.
    ``products`` and ``subtractions`` count the vectors whose product with
    their basis was formed and those that were orthogonalized.
    """

    exhausted = False
    path = "krylov"

    def __init__(self, op, f, cfg, alpha=None, cap=None):
        """The space of f, grown until it certifies ``alpha`` if one is given.

        A ``cap`` replaces the budget, and ``extend`` past it returns
        False instead of raising.
        """
        self._op = op
        self._rel_tolerance = cfg.rel_tolerance
        self._capped = cap is not None
        self._budget = cfg.budget(op.domain_dim) if cap is None else cap
        self._norm = 0.0  # largest bidiagonal entry: a lower bound on ||A||
        self._sized = False  # whether the LSQR monitor chose the current size
        self._u_loss = self._v_loss = 0.0  # bounds on the newest u's and v's loss
        self.steps = self.products = self.subtractions = 0
        beta = _norm(f)
        self._u = (f / beta)[None, :]
        self._v = np.empty((1, op.domain_dim))
        self._beta = [beta]
        self._alpha = []
        self._orthogonal_step(op.apply_adjoint(self._u[0]), 0.0)
        self._grow(min(_KRYLOV_START, self._budget))
        while alpha is not None and not self.certifies(alpha):
            self.extend(alpha)

    def _append(self, rows, count, vec, carried):
        """Store vec as rows[count]: (rows, norm, a bound on its loss of orthogonality).

        The loss is max_i |<q, q_i>| over the rows i < count, for the
        stored q = vec / ||vec||.  ``carried`` bounds max_i |<vec, q_i>|
        as Simon's recurrence (Lin. Alg. Appl. 61, 1984) carries the last
        two vectors' losses forward; with rounding of order eps ||B_k||,
        over ||vec||, it bounds the loss at O(1) cost.  A bound past
        ``_LOSS_LIMIT`` forms h = rows[:count] @ vec.  Past ten times the
        limit the loss rarely measures under a tenth of it, so vec is
        orthogonalized at once; otherwise the loss max|h| / ||vec|| is
        measured, and vec is orthogonalized only if it passes a tenth of
        the limit.  The next bound starts from the measured loss, or from
        eps once vec is orthogonalized.

        Orthogonalizing is one classical Gram-Schmidt pass that reuses h,
        and a second only when the first shrank vec below 1/sqrt(2) of its
        norm: the test of Daniel, Gragg, Kaufman and Stewart (Math. Comp.
        30, 1976).  A pass that keeps more of the norm than that leaves vec
        orthogonal to the basis to a small multiple of rounding.  Rows grow
        by doubling.  A norm at most ``DEFAULT_RANK_TOLERANCE`` times the
        largest bidiagonal entry, or a basis already spanning its space,
        is breakdown: nothing is stored and the norm is returned as 0.
        """
        norm = math.sqrt(vec @ vec)
        loss = (carried + _ROUNDING * self._norm) / norm if norm > 0.0 else 0.0
        if loss > _LOSS_LIMIT and count:
            self.products += 1
            basis = rows[:count]
            coefficients = basis @ vec
            if loss <= 10.0 * _LOSS_LIMIT:
                loss = float(np.abs(coefficients).max()) / norm
            if loss > 0.1 * _LOSS_LIMIT:
                self.subtractions += 1
                before, loss = norm, _EPS
                vec = vec - coefficients @ basis
                norm = math.sqrt(vec @ vec)
                if norm < before * _DGKS_RATIO:
                    vec = vec - (basis @ vec) @ basis
                    norm = math.sqrt(vec @ vec)
        if not math.isfinite(norm):
            raise InvalidParameterError("operator output must be finite; it holds inf or nan")
        if norm <= DEFAULT_RANK_TOLERANCE * self._norm or count == rows.shape[1]:
            return rows, 0.0, loss
        if count == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[count] = vec / norm
        return rows, norm, loss

    def _orthogonal_step(self, vec, beta):
        """Append v_k, alpha_k from vec = A^T u_k - beta_k v_{k-1}."""
        k = len(self._alpha)
        # alpha_k <v_k, v_i> = beta_{i+1} <u_k, u_{i+1}> + alpha_i <u_k, u_i>
        # - beta_k <v_{k-1}, v_i>, up to rounding, with alpha_i, beta_{i+1}
        # at most the largest entry.
        carried = 2.0 * self._norm * self._u_loss + beta * self._v_loss
        self._v, alpha, self._v_loss = self._append(self._v, k, vec, carried)
        self._alpha.append(alpha)
        self._norm = max(self._norm, alpha)
        self.exhausted = alpha == 0.0

    def _step(self):
        """One Golub-Kahan step: u_{k+1}, beta_{k+1}, then v_{k+1}, alpha_{k+1}."""
        j = self.steps
        alpha = self._alpha[j]
        vec = self._op.apply(self._v[j]) - alpha * self._u[j]
        # beta_{k+1} <u_{k+1}, u_i> = alpha_i <v_k, v_i> + beta_i <v_k, v_{i-1}>
        # - alpha_k <u_k, u_i>, up to rounding.
        carried = 2.0 * self._norm * self._v_loss + alpha * self._u_loss
        self._u, beta, self._u_loss = self._append(self._u, j + 1, vec, carried)
        self._beta.append(beta)
        self._norm = max(self._norm, beta)
        self.steps = j + 1
        if beta == 0.0:
            self._alpha.append(0.0)
            self.exhausted = True
            return
        self._orthogonal_step(self._op.apply_adjoint(self._u[j + 1]) - beta * self._v[j], beta)

    def _grow(self, k):
        """Extend to k steps or to breakdown, then fix B_k (``_factor``)."""
        while self.steps < k and not self.exhausted:
            self._step()
        self._factor()

    def _factor(self):
        """Fix the projected problem at the current k.

        B_k is alpha_1..alpha_k on the diagonal and beta_2..beta_{k+1}
        below it; alpha_{k+1}, the basis V_k that lifts y and g(0+), as
        ``outside_sq``, are kept with it.  Each alpha then costs one
        ``_sweep``.
        """
        k = self._size = self.steps
        self._alpha_next = self._alpha[k]
        self._basis = self._v[:k]
        self._swept = None
        self.outside_sq = self.floor()

    def _rotations(self, alpha):
        """Damped LSQR's Givens rotations of [B_k; sqrt(alpha) I], column by column.

        LSQR (Paige & Saunders, ACM TOMS 8, 1982; Elden, BIT 17, 1977):
        (cbar_j, sbar_j) rotates the damping row into row j, then (c_j, s_j)
        takes beta_{j+1} out of row j+1.  Yields, per column j, R's rho_j
        and theta_{j+1}, phi_j, c_j, cbar_j s_j, sbar_j psi_j, s_j and
        phibar_{j+1}.  Each column is read from the stored bidiagonal when
        asked for, so the loop runs alongside a growing space.
        """
        sqrt, hypot = math.sqrt, math.hypot
        damp = sqrt(alpha)
        betas, alphas = self._beta, self._alpha
        rhobar, phibar = alphas[0], betas[0]
        j = 1
        while j < len(alphas):
            beta, alpha_next = betas[j], alphas[j]
            rhobar1 = sqrt(rhobar**2 + alpha)
            cbar = rhobar / rhobar1
            sbar = damp / rhobar1
            psi = -sbar * phibar
            phibar = cbar * phibar
            rho = hypot(rhobar1, beta)
            c = rhobar1 / rho
            s = beta / rho
            rhobar = -c * alpha_next
            phi = c * phibar
            phibar = s * phibar
            yield rho, s * alpha_next, phi, c, cbar * s, sbar * psi, s, phibar
            j += 1

    def _sweep(self, alpha):
        """(alpha, y, g, slope, s_{k+1}) at alpha; the last sweep is kept.

        The first k columns of ``_rotations`` give R; y follows by back
        substitution on R.  The rotated residual is zero but for
        phibar_{k+1} in row k+1 and psi_j in the damping rows, and applying
        the rotations backwards to it gives r = beta_1 e_1 - B_k y without
        forming that difference, which cancels when r is small against
        beta_1.  Its last entry s_{k+1} is the certificate's.  With R^T R =
        B_k^T B_k + alpha I, dg/d(ln alpha) = 2 alpha^2 ||R^{-T} y||^2.
        """
        if self._swept is not None and self._swept[0] == alpha:
            return self._swept
        k = self._size
        columns = list(itertools.islice(self._rotations(alpha), k))
        # Backwards: y by substitution on R, and r from its last entry,
        # s_{k+1} = r[k], to its first.
        y, r = [0.0] * k, [0.0] * (k + 1)
        later, t = 0.0, columns[-1][7] if k else self._beta[0]
        for j in range(k - 1, -1, -1):
            rho, theta, phi, c, decay, push, _, _ = columns[j]
            y[j] = later = (phi - theta * later) / rho
            r[j + 1] = -c * t
            t = decay * t - push
        r[0] = t
        w_sq, w, above = 0.0, 0.0, 0.0
        for y_j, column in zip(y, columns):
            w = (y_j - above * w) / column[0]
            w_sq += w * w
            above = column[1]
        g = math.fsum([v * v for v in r])
        self._swept = (alpha, np.array(y), g, 2.0 * alpha * alpha * w_sq, r[k])
        return self._swept

    def _monitor(self, alpha):
        """Per column k of ``_rotations``, at O(1) each: damped LSQR's
        normal-equation residual ||A^T (f - A x_k) - alpha x_k|| =
        alpha_{k+1} |s_k phi_k|, and ||x_k|| from the LQ factorization of R.
        """
        cs2, sn2, z, xxnorm = -1.0, 0.0, 0.0, 0.0
        for j, (rho, theta, phi, _, _, _, s, _) in enumerate(self._rotations(alpha), 1):
            gambar = -cs2 * rho
            rhs = phi - sn2 * rho * z
            xnorm = math.sqrt(xxnorm + (rhs / gambar) ** 2)
            gamma = math.hypot(gambar, theta)
            cs2, sn2 = gambar / gamma, theta / gamma
            z = rhs / gamma
            xxnorm += z**2
            yield self._alpha[j] * abs(s * phi), xnorm

    def discrepancy(self, alpha):
        """g(alpha) = ||r||^2 and its slope dg/d(ln alpha)."""
        return self._sweep(alpha)[2:4]

    def solution(self, alpha):
        """The projected solution x_k = V_k y."""
        return self._sweep(alpha)[1] @ self._basis

    def _error_bound(self, alpha):
        """The certified bound |alpha_{k+1} s_{k+1}| / alpha on ||x_k - u_alpha||, over ||x_k||.

        ||x_k|| = ||y|| is taken by ``_norm``: at a large alpha, y @ y underflows.
        """
        _, y, _, _, s_last = self._sweep(alpha)
        return abs(self._alpha_next * s_last) / (alpha * _norm(y))

    def certifies(self, alpha):
        """Whether ||x_k - u_alpha|| <= ``rel_tolerance`` ||x_k||: always once exhausted."""
        return self.exhausted or self._error_bound(alpha) <= self._rel_tolerance

    def moments(self):
        """||f||^2 - g(0+) and ||A^T f||^2 = ||B_k^T beta_1 e_1||^2 = (alpha_1 beta_1)^2."""
        beta_sq = self._beta[0] * self._beta[0]
        return beta_sq - self.outside_sq, beta_sq * self._alpha[0] ** 2

    def floor(self):
        """g(0+) = beta_1^2 / ||z||^2, with z the null vector of B_k^T.

        z_1 = 1 and z_{j+1} = -(alpha_j / beta_{j+1}) z_j; the ratios are
        summed in logs, since |z_j| can overflow.  Every alpha_j, j <= k,
        is nonzero, and so is every beta_{j+1} but on a space exhausted by
        beta_{k+1} = 0: there B_k is square with a nonzero diagonal, f lies
        in its range, and g(0+) = 0.
        """
        k = self.steps
        if self._beta[k] == 0.0:
            return 0.0
        log_z, logs = 0.0, [0.0]
        for alpha, beta in zip(self._alpha[:k], self._beta[1 : k + 1]):
            log_z += math.log(alpha) - math.log(beta)
            logs.append(log_z)
        top = max(logs)
        scaled_sq = math.fsum([math.exp(2.0 * (v - top)) for v in logs])  # ||z||^2 / e^(2 top)
        return self._beta[0] * self._beta[0] * math.exp(-2.0 * top) / scaled_sq

    def extend(self, alpha=None):
        """Grow the space after ``certifies`` rejected ``alpha``, a root or a fixed alpha.

        The rotations of damped LSQR with damp = sqrt(alpha)
        (``_monitor`` on ``_rotations``) are replayed over the stored
        bidiagonal and then run alongside new Golub-Kahan steps, one at a
        time, until the normal-equation residual alpha_{k+1} |s_k phi_k|
        of a new column meets the certificate's own limit
        ``rel_tolerance * alpha * ||x_k||``,
        the space is exhausted, or the budget is spent; B_k is fixed once
        at the end.  That residual is the |alpha_{k+1} s_{k+1}| the
        certificate bounds, but the monitor only sizes the space: the root
        moves on it, and ``certifies`` alone accepts a root.  Without a
        root (``alpha`` None), or when the certificate failed on a space
        the monitor had sized, the space doubles instead, which keeps the
        number of root searches logarithmic in the final size.
        ``ConvergenceError`` past the budget carries ``achieved_residual``, the
        certified relative error at ``alpha``, and x_k as ``last_iterate``;
        past a cap, nothing grows and False is returned.  Otherwise True.
        """
        if self.steps >= self._budget:
            if self._capped:
                return False
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
            return True
        self._sized = True
        limit, stored = self._rel_tolerance * alpha, self.steps
        for j, (residual, xnorm) in enumerate(self._monitor(alpha), 1):
            if j > stored and residual <= limit * xnorm:
                break
            if j == self.steps:
                if self.exhausted or self.steps >= self._budget:
                    break
                self._step()
        self._factor()
        return True


class LinearOperator:
    """A real linear map from R^domain_dim to R^range_dim."""

    kind = "abstract"

    def __init__(self, range_dim, domain_dim):
        self.range_dim = _check_count(range_dim, "range_dim")
        self.domain_dim = _check_count(domain_dim, "domain_dim")

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

    def _rows(self, start, stop):
        """Rows start..stop-1 of the matrix: a view of a dense one, else a new array.

        Every kind but ``matrix_free`` has entries; ``matrix``,
        ``as_dense_matrix`` and ``_matrix_system`` read them here alone.
        """
        raise UnsupportedKindError(f"cannot materialize operator of kind {self.kind!r}")

    @functools.cached_property
    def matrix(self):
        """The dense matrix, read-only, built from ``_rows`` on first read up to ``MAX_DENSE_DIM``."""
        matrix = as_dense_matrix(self)
        matrix.setflags(write=False)
        return matrix

    # Tikhonov kernels.  Callers pass a checked alpha ``a``, validated
    # nonzero vectors and an ``IterativeSolverConfig``; each kernel returns
    # (vector, iterations), with zero iterations for direct forms.

    def _solve_normal(self, a, b, cfg):
        """x with (A^T A + a I) x = b, filtered through ``_system``.

        The part of b outside the right vectors lies in the null space,
        which the shifted normal map scales by a.  Without a system, damped
        LSQR on [A; c I] x ~ [0; b / c]: c^2 = a / 2 and damping a / 2 add
        up to a, and keep the stacked matrix's smallest singular value at
        least sqrt(a / 2).
        """
        d = self._system
        if d is not None:
            coeff = d._right_t(b)
            x = d._right(coeff / (d.singular_values**2 + a))
            if d.rank < self.domain_dim:
                x = x + (b - d._right(coeff)) / a
            return x, 0
        m, n, c = self.range_dim, self.domain_dim, math.sqrt(a / 2.0)
        stacked = MatrixFreeOperator(
            m + n, n,
            lambda x: np.concatenate([self.apply(x), c * x]),
            lambda z: self.apply_adjoint(z[:m]) + c * z[m:],
        )
        return stacked._solve_primal(a / 2.0, np.concatenate([np.zeros(m), b / c]), cfg)

    def _solve_primal(self, a, f, cfg):
        """The minimizer for data f, read off ``_project`` at a."""
        p = self._project(f, cfg, a)
        return p.solution(a), p.steps

    def _solve_dual(self, a, f, cfg):
        """u = A^T (A A^T + a I)^{-1} f: the primal map, so the same solution."""
        return self._solve_primal(a, f, cfg)

    #: The untruncated singular system, or None: selection then grows a
    #: Krylov space.  The kinds that have one build it once, on first read.
    _system = None

    def _project(self, f, cfg, alpha=None):
        """The ``_Projection`` of data f on ``_system``, else a Krylov space.

        The Krylov space is grown until it certifies ``alpha``, if one is given.
        """
        if self._system is None:
            return _KrylovProjection(self, f, cfg, alpha)
        return self._system._project(f)

    def __repr__(self):
        return (
            f"{type(self).__name__}(range_dim={self.range_dim}, "
            f"domain_dim={self.domain_dim})"
        )


class DenseOperator(LinearOperator):
    """Operator backed by an explicit (range_dim x domain_dim) matrix.

    ``matrix`` is a read-only copy of the caller's real array; complex
    entries are refused, not cast.  Its singular system is built on first
    read (``_matrix_system``), which a selection makes unless it is the
    first on an exactly symmetric matrix: that one runs on a capped
    Golub-Kahan space and factors only if the space does not certify
    (``_project``).
    """

    kind = "dense"

    def __init__(self, matrix):
        matrix = np.array(_real(matrix, "dense operator matrix"), dtype=float)
        if matrix.ndim != 2:
            raise DimensionMismatchError(
                f"dense operator needs a 2-d matrix, got shape {matrix.shape}"
            )
        if not np.isfinite(matrix).all():
            raise InvalidParameterError("dense operator entries must be finite")
        matrix.setflags(write=False)
        self.matrix = matrix
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

    def _rows(self, start, stop):
        return self.matrix[start:stop]

    def _decompose(self, rank_tolerance=0.0):
        """``_matrix_system`` of the matrix; None above ``MAX_DENSE_DIM``."""
        if max(self.range_dim, self.domain_dim) > MAX_DENSE_DIM:
            return None
        return _matrix_system(self._rows, self.matrix.shape, rank_tolerance)

    _system = functools.cached_property(_decompose)

    #: Whether a selection has projected data on this operator.
    _selected = False

    def _project(self, f, cfg, alpha=None):
        """A Golub-Kahan space for the first selection on a symmetric matrix, else ``_system``.

        Selecting on the space costs a few dozen products with the matrix,
        where the system costs a whole factorization.  It is tried only
        on a fresh operator: one whose ``_system`` is unbuilt, that no
        selection has used, that is exactly symmetric and that has a
        system to fall back to.  Its budget is capped at
        ``max(32, n // 8)`` steps; a space that has not certified the root
        by then makes ``extend`` return False, and ``discrepancy._select``
        selects on ``_system`` instead.  Later selections take ``_system``
        at once, so k selections on one operator cost at most one space and
        one factorization.  On a random symmetric matrix or D^T D, whose
        spaces do not certify early, the first selection takes 1.3 to 2.7
        times as long as factoring and selecting alone, at n = 128 to 1024
        (one BLAS thread, 2-core VM).  Two first selections that run at
        once may each take a space; each result is certified either way.
        """
        fresh = not self._selected and "_system" not in vars(self)
        self._selected = True
        if fresh and self.domain_dim <= MAX_DENSE_DIM and _is_symmetric(self.matrix):
            return _KrylovProjection(self, f, cfg, cap=max(32, self.domain_dim // 8))
        return super()._project(f, cfg, alpha)


def _is_symmetric(matrix):
    """Whether the matrix is square and equal to its transpose entry for entry."""
    return matrix.shape[0] == matrix.shape[1] and np.array_equal(matrix, matrix.T)


def _matrix_system(rows, shape, rank_tolerance, products=None):
    """The system of the matrix that a dense or Toeplitz operator's ``_rows`` reads, truncated at ``rank_tolerance``.

    Each is tried at most once, in order: the two half-size reflection
    blocks of a matrix with ``A[::-1, ::-1] == +-A`` bit for bit
    (``_reflection_blocks``), cut from its rows, a test most other
    matrices fail on their first band; one random block (``_sketch``) on
    ``products``, a symmetric Toeplitz operator's ``_FFTProducts``; and
    the whole matrix, read once by ``rows(0, m)`` (a Toeplitz one is
    built for this and dropped), factored by its own random block, else
    by eigh if it is exactly symmetric and the SVD if not (``_factor``).
    Every route ends in one ``_FactoredDecomposition``, of the two blocks
    or of the one.
    """
    reflected = _reflection_blocks(rows, shape)
    if reflected is not None:
        blocks, sign, symmetric = reflected
        # Popped, so each block is freed before the next is factored.
        factors = [_factor(blocks.pop(0), symmetric and sign > 0) for _ in range(2)]
        return _FactoredDecomposition(factors, shape, rank_tolerance, sign)
    picked = products is not None and _sketch(products, True)
    if not picked:
        matrix = rows(0, shape[0])
        symmetric = _is_symmetric(matrix)
        picked = _sketch(matrix, symmetric) or _factor(matrix, symmetric)
    return _FactoredDecomposition([picked], shape, rank_tolerance)


def _factor(matrix, symmetric):
    """(sigma, pick): the singular values of a matrix, nonincreasing, and their vectors.

    ``pick(index)`` returns (left, right, signs) for ``sigma[index]``,
    a leading run, as every caller keeps the largest values:
    u_i = signs_i left_i and v_i = right_i, with ``signs`` None for all
    +1.  A ``symmetric`` matrix is factored by eigh, A = Q diag(lambda)
    Q^T, as sigma_i = |lambda_i|, v_i = q_i and u_i = sign(lambda_i) q_i,
    ordered by nonincreasing |lambda_i|: ``left`` is ``right``, the picked
    q_i held once, and ``signs`` the sign(lambda_i).  Any other matrix
    goes through the SVD, with ``signs`` None.  Only the picked columns
    are copied, and none when all are picked.  The pair is one block of
    a ``_FactoredDecomposition``: a whole matrix, reflection or Ritz block.
    """
    if symmetric:
        # On hilbert at n = 1024 and phillips at n = 1025 (one OpenBLAS
        # thread, 2-core x86 VM) eigh takes 200-300 ms and the SVD
        # 670-800 ms.  hilbert's system comes from ``_sketch`` in ~12 ms.
        lam, q = np.linalg.eigh(matrix)
        order = np.argsort(-np.abs(lam), kind="stable")
        lam = lam[order]
        # Q is sorted and then transposed in its own buffer, a band or a
        # pair of tiles at a time, so the only copy beside it is one band.
        # Its columns end up contiguous, in the Fortran order that copying
        # them out, ``q[:, order]``, gives, and every product keeps its bits.
        for start in range(0, q.shape[0], _BAND):
            band = q[start : start + _BAND]
            band[...] = band[:, order]
        _transpose_in_place(q)
        q = q.T

        def pick(index):
            picked = lam[index]
            right = q if picked.size == lam.size else q[:, index]
            return right, right, np.where(picked < 0, -1.0, 1.0)

        return np.abs(lam), pick
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return s, lambda index: (u[:, index], vt[index].T, None)


def _transpose_in_place(a):
    """Overwrite the square array a with its transpose, a pair of ``_BAND``-wide tiles at a time."""
    n = a.shape[0]
    for i in range(0, n, _BAND):
        rows = slice(i, i + _BAND)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + _BAND, n, _BAND):
            cols = slice(j, j + _BAND)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _sketch(matrix, symmetric):
    """``_factor``'s (sigma, pick) for one random block's pairs above max(m, n) eps sigma_1, or None.

    Tried on matrices at least ``8 * _SKETCH_WIDTH`` wide.  Q spans A A
    Omega (A A^T A Omega if A is not symmetric) for a fixed-seed Gaussian
    Omega of ``_SKETCH_WIDTH`` columns; Rayleigh-Ritz factors Q^T A Q, or
    Q^T A, by ``_factor`` (Halko, Martinsson & Tropp, SIAM Review 53,
    2011).  It is kept only if three figures are at most limit =
    max(m, n) eps sigma_1: its smallest Ritz value, 10 sqrt(2/pi) times
    the largest of ``_SKETCH_PROBES`` probe residuals, and every kept
    ||A v_i - sigma_i u_i||.  So each pair it returns is a singular pair
    of A to within the limit, its value above it.  No value above about
    three times the limit is left out only for a matrix drawn apart from
    the fixed-seed probes, except with probability 10^-10 (their Lemma
    4.1, then Weyl): a part above the limit orthogonal to the probes,
    whose Ritz values cancel below it, passes every check and is left
    out.  Values below the limit carry no correct digits from a
    whole-matrix factorization either (Weyl).  A failed attempt costs a
    few percent of factoring the whole matrix.  A symmetric ``matrix``
    need only have ``shape`` and ``@`` with blocks of columns, as a
    Toeplitz operator's ``_FFTProducts``.
    """
    if min(matrix.shape) < 8 * _SKETCH_WIDTH:
        return None
    rng = np.random.default_rng(np.random.Philox(_POWER_START_SEED))
    q = np.linalg.qr(matrix @ rng.standard_normal((matrix.shape[1], _SKETCH_WIDTH)))[0]
    if symmetric:
        q = np.linalg.qr(matrix @ q)[0]
        aq = matrix @ q
        s, pick = _factor(q.T @ aq, True)
    else:
        q = np.linalg.qr(matrix @ np.linalg.qr(matrix.T @ q)[0])[0]
        s, pick = _factor(q.T @ matrix, False)
    limit = max(matrix.shape) * _EPS * s[0]
    if not s[-1] <= limit:
        return None
    probes = matrix @ rng.standard_normal((matrix.shape[1], _SKETCH_PROBES))
    missed = np.linalg.norm(probes - q @ (q.T @ probes), axis=0).max()
    if not 10.0 * math.sqrt(2.0 / math.pi) * missed <= limit:
        return None
    keep = s > limit
    s, (left, right, signs) = s[keep], pick(keep)
    if symmetric:
        applied, right = aq @ right, q @ right
        left = right
    else:
        applied, left = matrix @ right, q @ left
    if not np.linalg.norm(applied - left * _signed(signs, s), axis=0).max(initial=0.0) <= limit:
        return None

    def pick(index):
        kept = right[:, index]
        if signs is None:
            return left[:, index], kept, None
        return kept, kept, signs[index]

    return s, pick


class _FFTProducts:
    """A Toeplitz operator as ``_sketch`` reads a symmetric matrix: its shape, and ``@`` by FFT."""

    def __init__(self, op):
        self._op = op
        self.shape = (op.range_dim, op.domain_dim)

    def __matmul__(self, x):
        return self._op._product(x)


_HALF_SQRT2 = math.sqrt(0.5)


def _fold(x):
    """(even, odd): x's coordinates along axis 0 in the reflection bases.

    With h = len(x) // 2, the even basis is (e_i + e_{n-1-i}) / sqrt(2),
    i < h, and e_h if n is odd; the odd basis is (e_i - e_{n-1-i}) /
    sqrt(2), i < h.  Together they are orthonormal, so ``_unfold``
    inverts ``_fold``.
    """
    h = x.shape[0] // 2
    top, bottom = x[:h], x[::-1][:h]
    even = (top + bottom) * _HALF_SQRT2
    if x.shape[0] % 2:
        even = np.concatenate([even, x[h : h + 1]])
    return even, (top - bottom) * _HALF_SQRT2


def _unfold(even, odd):
    """The vector, or the columns, with coordinates (even, odd) in the reflection bases."""
    h = odd.shape[0]
    top = (even[:h] + odd) * _HALF_SQRT2
    bottom = (even[:h] - odd) * _HALF_SQRT2
    return np.concatenate([top, even[h:], bottom[::-1]])


def _times(sign, x):
    """sign * x for sign +-1, as 0.0 - x for -1: a zero comes out +0.0, as a matrix's zeros mostly are, not -0.0."""
    return x if sign > 0 else np.subtract(0.0, x)


def _parities(sign):
    """The (row, column) parities of the two reflection blocks, even rows first.

    J A J = A maps even vectors to even and odd to odd, J A J = -A even
    to odd and odd to even.
    """
    return ((0, 0), (1, 1)) if sign > 0 else ((0, 1), (1, 0))


def _block_rows(top_left, top_right, bottom_left, bottom_right, row_parity, col_parity):
    """Rows of a reflection block's leading k columns from the same rows i of four quadrants.

    The quadrants hold A[i, j], A[i, n-1-j], A[m-1-i, j] and A[m-1-i,
    n-1-j] for j < k = n // 2.  Entry (i, j) is ((A[i, j] +- A[m-1-i, j])
    sqrt(1/2) +- (A[i, n-1-j] +- A[m-1-i, n-1-j]) sqrt(1/2)) sqrt(1/2),
    the first sign by the row parity and the second by the column parity
    (+ even, - odd): the additions and scalings of the two folds in their
    order, so the block is the same bits, but no folded rows are
    allocated.  ``_reflection_blocks`` cuts every block here, for dense
    matrices and Toeplitz operators alike.
    """
    by_rows = np.subtract if row_parity else np.add
    by_cols = np.subtract if col_parity else np.add
    inner = by_rows(top_left, bottom_left)
    inner *= _HALF_SQRT2
    mirrored = by_rows(top_right, bottom_right)
    mirrored *= _HALF_SQRT2
    by_cols(inner, mirrored, out=inner)
    inner *= _HALF_SQRT2
    return inner


def _reflection_blocks(rows, shape):
    """([block, block], sign, symmetric) if the m x n matrix A has A[::-1, ::-1] == sign A bit for bit, else None.

    ``rows(start, stop)`` returns rows start..stop-1 of A: views of a
    dense matrix, or a Toeplitz operator's bands, built on the call.  The
    top m - m // 2 rows are read ``_BAND`` at a time, each band with its
    mirror read backwards; a sign holds while every mirror is sign times
    its band (``_times``) bit for bit, not merely in value (+0.0 against
    -0.0), or blocks cut from the top rows would not have the bottom
    rows' bits.  Only L[i, j] = A[i, j] and R[i, j] = A[i, n-1-j],
    j < k = n // 2, are kept, with the middle column in L: about m n / 2
    doubles, every entry read once.  Given the sign, A = A^T iff m = n,
    L = L^T, R = sign R^T and the middle column is the middle row.  The
    bottom quadrants are sign R and sign L, so ``_block_rows``
    writes both blocks in place of L and R, an even side of odd length
    taking the middle row or column, scaled once: the blocks are
    ``_fold(_fold(A)[r].T)[c].T`` bit for bit.
    """
    m, n = shape
    h, k = m // 2, n // 2
    signs = [1.0, -1.0]
    for start in range(0, m - h, _BAND):
        stop = min(start + _BAND, m - h)
        top = rows(start, stop)
        mirror = rows(m - stop, m - start)[::-1, ::-1].view(np.int64)
        signs = [sign for sign in signs if np.array_equal(mirror, _times(sign, top).view(np.int64))]
        if not signs:
            return None
        if not start:  # allocated once the first band has the structure
            left, right = np.empty((m - h, n - k)), np.empty((m - h, n - k))
        left[start:stop] = top[:, : n - k]
        right[start:stop, :k] = top[:, ::-1][:, :k]
    sign = signs[0]
    upper_left, upper_right = left[:h, :k], right[:h, :k]
    bands = [slice(start, start + _BAND) for start in range(0, h, _BAND)]
    symmetric = (
        m == n
        and np.array_equal(left[:h, k:], left[h:, :k].T)
        and all(
            np.array_equal(upper_left[band], upper_left[:, band].T)
            and np.array_equal(upper_right[band], sign * upper_right[:, band].T)
            for band in bands
        )
    )
    parities = _parities(sign)
    for band in bands:
        top_left, top_right = upper_left[band], upper_right[band]
        quadrants = top_left, top_right, _times(sign, top_right), _times(sign, top_left)
        upper_left[band], upper_right[band] = [_block_rows(*quadrants, *p) for p in parities]
    # ``left`` is the even-row block, whose columns are odd for sign -1;
    # the even-column block is ``left`` for +1 and ``right``, of odd rows,
    # for -1.  So both middle lines combine with their mirrors by the sign.
    combine = np.subtract if sign < 0 else np.add
    if m % 2:
        left[h, :k] = combine(left[h, :k], right[h, :k]) * _HALF_SQRT2
    if n % 2:
        middle = left[:h, k]
        (left if sign > 0 else right)[:h, k] = combine(middle, _times(sign, middle)) * _HALF_SQRT2
    return [
        store[: h if r else m - h, : k if c else n - k]
        for store, (r, c) in zip((left, right), parities)
    ], sign, symmetric


def _signed(signs, c):
    """diag(signs) c along axis 0, or c if ``signs`` is None.  A product by +-1 is exact."""
    return c if signs is None else (c.T * signs).T


class DiagonalOperator(LinearOperator):
    """Square operator diag(values) with nonnegative entries."""

    kind = "diagonal"

    def __init__(self, values):
        values = np.asarray(_real(values, "diagonal entries"), dtype=float)
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

    def _rows(self, start, stop):
        rows = np.zeros((stop - start, self.domain_dim))
        index = np.arange(stop - start)
        rows[index, start + index] = self.values[start:stop]
        return rows

    def _decompose(self, rank_tolerance=0.0):
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

    _system = functools.cached_property(_decompose)


def _check_dense_dim(rows, cols, what):
    """Refuse a dense (rows x cols) array above ``MAX_DENSE_DIM`` before allocating it."""
    if max(rows, cols) > MAX_DENSE_DIM:
        raise SizeLimitError(f"{what} capped at {MAX_DENSE_DIM}, got {rows} x {cols}")


class GradientOperator(LinearOperator):
    """n D on R^n, with D the (n-1) x n forward difference: (A x)_i = n (x_{i+1} - x_i).

    Applied in O(n) and solved through its closed-form singular system
    (``_GradientDecomposition``) in O(n log n), so no size cap applies.
    ``_rows`` builds its entries, -n and n on two diagonals.
    """

    kind = "gradient"

    def __init__(self, n):
        n = _check_count(n, "n", least=2)
        super().__init__(n - 1, n)

    def apply(self, x):
        return self.domain_dim * np.diff(_as_vector(x, self.domain_dim, "x"))

    def apply_adjoint(self, w):
        scaled = self.domain_dim * _as_vector(w, self.range_dim, "w")
        out = np.zeros(self.domain_dim)
        out[:-1] -= scaled
        out[1:] += scaled
        return out

    def _rows(self, start, stop):
        n = self.domain_dim
        rows = np.zeros((stop - start, n))
        index = np.arange(stop - start)
        rows[index, start + index] = -float(n)
        rows[index, start + index + 1] = float(n)
        return rows

    @functools.cached_property
    def _system(self):
        return _GradientDecomposition(self.domain_dim)


class GreenOperator(LinearOperator):
    """K = (-d^2/dt^2)^{-1} on [0, 1] with zero boundary values, on n midpoints.

    The midpoint rule gives K = h G(t_i, t_j), h = 1/n, t_i = (i - 1/2) h,
    with G(s, t) = s (t - 1) for s <= t the Green's function.  K is
    symmetric and negative definite.  Applied and solved through its
    closed-form singular system (``_GreenDecomposition``, a DST-II) in
    O(n log n), so no size cap applies.  ``_rows`` evaluates h G at the
    midpoints of its rows and columns.
    """

    kind = "green"

    def __init__(self, n):
        n = _check_count(n, "n")
        super().__init__(n, n)

    def apply(self, x):
        d = self._system
        return d._left(d.singular_values * d._right_t(_as_vector(x, self.domain_dim, "x")))

    apply_adjoint = apply  # K is symmetric

    def _rows(self, start, stop):
        n = self.domain_dim
        h = 1.0 / n
        t = (np.arange(1, n + 1) - 0.5) * h
        s, t = t[start:stop, None], t[None, :]
        # The s <= t branch is built in the output and the other copied in
        # under its mask, so the peak is two matrices.
        rows = s * (t - 1.0)
        np.copyto(rows, t * (s - 1.0), where=s > t)
        rows *= h
        return rows

    @functools.cached_property
    def _system(self):
        return _GreenDecomposition(self.domain_dim)


class ToeplitzOperator(LinearOperator):
    """An n x n Toeplitz matrix, or a Hankel one as its rows reversed, applied by FFT.

    ``ToeplitzOperator(column, row)`` is T[i, j] = column[i - j] for
    i >= j and row[j - i] for i < j, as ``scipy.linalg.toeplitz(column,
    row)``.  With ``hankel=True`` it is H[i, j] = column[i + j] for
    i + j < n and row[i + j - n + 1] beyond, as ``scipy.linalg.hankel``:
    the Toeplitz matrix J H, J the reversal, with its rows reversed.
    Either is held as the 2n - 1 values t on T's diagonals, T[i, j] =
    t[n - 1 + i - j], and applied by one length-2n ``rfft`` pair through
    the circulant that embeds T (Chan & Ng, SIAM Review 38, 1996): O(n
    log n) time and O(n) memory.

    Entries are read off t, or built by ``entries(rows)`` if given: a
    new array of the rows of a slice, from a closed form of their own,
    which t may match only to rounding.  Each band it returns must have
    shape (rows, n) and finite entries, or InvalidParameterError is
    raised.  Taking the row slice breaks the earlier interface, a
    zero-argument ``entries()`` that returned the whole matrix: the
    factorization builds A a band at a time, and such a builder fails its
    first call.  Up to ``MAX_DENSE_DIM``, ``_system`` is the matrix's
    factorization, mostly without the matrix (``_decompose``), and the
    kernels filter through it, as for the other kinds with a system.
    Above it there is no system, and selection and solves grow a
    Golub-Kahan space on the FFT apply.
    """

    kind = "toeplitz"

    def __init__(self, column, row, hankel=False, entries=None):
        n = np.size(column)
        super().__init__(n, n)
        column, row = _as_data(column, n, "Toeplitz column"), _as_data(row, n, "Toeplitz row")
        # T's first column is the Hankel column reversed; row[0] is unused.
        values = np.concatenate([row[:0:-1], column[::-1] if hankel else column])
        self._values = _readonly(values)
        self._hankel = bool(hankel)
        if entries is not None and not callable(entries):
            raise InvalidParameterError(f"entries must be callable, got {type(entries).__name__}")
        self._closed_form = entries
        # The spectra of T's and T^T's symbols, zero-padded to the circulant.
        self._spectra = (np.fft.rfft(values, 2 * n), np.fft.rfft(values[::-1], 2 * n))

    def _product(self, x, adjoint=False):
        """A x, or A^T x, for a vector or a block of columns x.

        T x is rows n-1..2n-2 of the circulant product: they sum t[p] x_j
        over p = n - 1 + i - j in [0, 2n - 2], so no term wraps around the
        length-2n circle.  T^T takes the transpose's spectrum; H = J T and
        H^T = T^T J.
        """
        n = self.domain_dim
        spectrum = self._spectra[adjoint]
        if x.ndim == 2:
            spectrum = spectrum[:, None]
        if self._hankel and adjoint:
            x = x[::-1]
        tx = np.fft.irfft(spectrum * np.fft.rfft(x, 2 * n, axis=0), 2 * n, axis=0)[n - 1 : 2 * n - 1]
        return tx[::-1] if self._hankel and not adjoint else tx

    def apply(self, x):
        return self._product(_as_vector(x, self.domain_dim, "x"))

    def apply_adjoint(self, w):
        return self._product(_as_vector(w, self.range_dim, "w"), adjoint=True)

    def _rows(self, start, stop):
        """A new array of rows start..stop-1: ``entries`` of them, checked, else read off t."""
        n = self.domain_dim
        if self._closed_form is not None:
            rows = np.asarray(_real(self._closed_form(slice(start, stop)), "Toeplitz entries"), dtype=float)
            if rows.shape != (stop - start, n):
                raise InvalidParameterError(
                    f"entries(slice({start}, {stop})) must have shape {(stop - start, n)}, got {rows.shape}"
                )
            # By bands, so the mask of a whole matrix is never made.
            if not all(np.isfinite(rows[k : k + _BAND]).all() for k in range(0, stop - start, _BAND)):
                raise InvalidParameterError("Toeplitz entries must be finite; they hold inf or nan")
            return rows
        # Window k holds t[2n-2-k-j], j = 0..n-1: row k of H, row n-1-k of T.
        windows = np.lib.stride_tricks.sliding_window_view(self._values[::-1], n)
        return np.array(windows[start:stop] if self._hankel else windows[n - stop : n - start][::-1])

    def _decompose(self, rank_tolerance=0.0):
        """``_matrix_system`` of the rows, with FFT products if t is symmetric; None above ``MAX_DENSE_DIM``.

        The products round otherwise than the dense ones.  Whether
        ``matrix`` was read first makes no difference.
        """
        n = self.domain_dim
        if n > MAX_DENSE_DIM:
            return None
        # Read off t, A = A^T iff A is Hankel or t is a palindrome.
        values = self._values
        symmetric = self._closed_form is None and (self._hankel or np.array_equal(values, values[::-1]))
        return _matrix_system(self._rows, (n, n), rank_tolerance, _FFTProducts(self) if symmetric else None)

    _system = functools.cached_property(_decompose)


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
        return _as_vector(self._forward(x), self.range_dim, "forward callback output")

    def apply_adjoint(self, w):
        w = _as_vector(w, self.range_dim, "w")
        return _as_vector(self._adjoint(w), self.domain_dim, "adjoint callback output")


def operator_norm_estimate(op, tol=1e-10, max_iters=5000):
    """Estimate the spectral norm ||A||_2 by power iteration on A^T A.

    The start vector is drawn from a fixed internal seed, so repeated
    calls give identical iterates.  Stops when successive estimates agree
    to a relative ``tol``; under a generic start this tracks the relative
    error of the estimate.

    Raises
    ------
    InvalidParameterError
        Before any iteration, if ``tol`` is not finite and positive or
        ``max_iters`` is not an integer >= 1.
    ConvergenceError
        If the budget runs out; the last estimate and iteration count are
        attached as diagnostics.
    """
    tol = _as_real(tol, "tol")
    if not math.isfinite(tol) or tol <= 0.0:
        raise InvalidParameterError(f"tol must be finite and positive, got {tol}")
    max_iters = _check_count(max_iters, "max_iters")
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
    """Singular system of a dense, diagonal, gradient, Green's or Toeplitz operator.

    ``singular_values`` is nonincreasing with every retained value above
    ``rank_tolerance * sigma_1``, a tolerance 0 in an operator's
    ``_system``; ``left_vectors`` (range space) and ``right_vectors``
    (domain space) hold the paired orthonormal columns.  Projections onto
    the range of A (equivalently, the range of A A^T) and its orthogonal
    complement are spanned by the left vectors; the domain-side analogue
    uses the right vectors.

    The decomposition of a diagonal operator (``DiagonalOperator._decompose``)
    stores only the indices of its kept entries: its singular vectors are
    coordinate axes, so every product with them is a gather or a scatter.
    It takes O(n) memory and O(n) work per alpha selection, and builds
    the dense (n, rank) vectors only when a caller reads them, up to
    ``MAX_DENSE_DIM``.  Every decomposition sets its shape once, so
    ``range_dim`` and ``domain_dim`` build no vectors either.

    Two decompositions are equal only if they are the same object, and the
    repr leaves the vectors out, so neither builds them.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray = field(repr=False)
    right_vectors: np.ndarray = field(repr=False)
    rank_tolerance: float

    def __post_init__(self):
        # Straight into the instance dict, past the frozen __setattr__.
        vars(self)["_shape"] = (self.left_vectors.shape[0], self.right_vectors.shape[0])

    @property
    def rank(self):
        return self.singular_values.shape[0]

    @property
    def range_dim(self):
        return self._shape[0]

    @property
    def domain_dim(self):
        return self._shape[1]

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
            singular_values=singular_values,
            rank_tolerance=rank_tolerance,
            _axes=axes,
            _shape=(dim, dim),
        )

    @functools.cached_property
    def left_vectors(self):
        _check_dense_dim(self.range_dim, self.rank, "dense singular vectors")
        vectors = np.zeros((self.range_dim, self.rank))
        vectors[self._axes, np.arange(self.rank)] = 1.0
        vectors.setflags(write=False)
        return vectors

    @property
    def right_vectors(self):
        return self.left_vectors

    def _gather(self, x):
        return x[self._axes]

    def _scatter(self, c):
        out = np.zeros(self.range_dim)
        out[self._axes] = c
        return out

    _left_t = _right_t = _gather
    _left = _right = _scatter

    def reconstruct(self):
        _check_dense_dim(*self._shape, "dense matrix")
        out = np.zeros(self._shape)
        out[self._axes, self._axes] = self.singular_values
        return out


class _FactoredDecomposition(SpectralDecomposition):
    """Singular system of a factored matrix, whole or as two reflection blocks.

    ``factors`` holds one (sigma, pick) pair of ``_factor`` or ``_sketch``
    per block: one for the whole matrix, or two for a matrix with J A J =
    ``sign`` A, J the reversal, in ``_parities(sign)`` order.  J A J = A
    maps the even vectors under reversal (``_fold``) to even and odd to
    odd, and J A J = -A even to odd and odd to even, so in those
    orthonormal bases A is two blocks about half its size (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976): a quarter of the flops to
    factor.  The spectra are merged nonincreasing and truncated as one.
    Each side keeps a (vectors, signs, where) triple per block, even
    first: the block's singular vectors, their signs (None for all +1),
    and their positions in the merged order.  An eigh factor's two
    triples share one array, with u_i = sign(lambda_i) v_i, exact in
    every product.  The products and dense vectors of one block are its
    stored arrays' (the left ones signed when read); two blocks fold and
    unfold.  The choice is made once, at construction.
    """

    def __init__(self, factors, shape, rank_tolerance, sign=None):
        s = np.concatenate([sigma for sigma, _ in factors])
        order = np.argsort(-s, kind="stable")
        kept = order[_kept(s[order], rank_tolerance)]
        left, right, start = [], [], 0
        for sigma, pick in factors:
            where = np.flatnonzero((kept >= start) & (kept < start + sigma.size))
            u, v, signs = pick(kept[where] - start)
            left.append((u, signs, where))
            right.append((v, None, where))
            start += sigma.size
        if len(factors) == 1:
            analysis, synthesis, columns = _whole_analysis, _whole_synthesis, _stored_columns
        else:
            analysis, synthesis, columns = _folded_analysis, _folded_synthesis, _unfolded
        # Straight into the instance dict, past the frozen __setattr__.
        vars(self).update(
            singular_values=_readonly(s[kept]),
            rank_tolerance=rank_tolerance,
            _shape=shape,
            _left_parts=tuple(left),
            # J A J = -A takes even columns to odd rows, so the block of
            # even columns is the second.
            _right_parts=tuple(right[::-1] if sign == -1 else right),
            _analysis=analysis,
            _synthesis=synthesis,
            _columns=columns,
        )

    @functools.cached_property
    def left_vectors(self):
        return self._columns(self._left_parts, self.rank)

    @functools.cached_property
    def right_vectors(self):
        return self._columns(self._right_parts, self.rank)

    def _left(self, c):
        return self._synthesis(self._left_parts, c)

    def _left_t(self, f):
        return self._analysis(self._left_parts, f, self.rank)

    def _right(self, c):
        return self._synthesis(self._right_parts, c)

    def _right_t(self, x):
        return self._analysis(self._right_parts, x, self.rank)


def _whole_analysis(parts, x, rank):
    """A whole-matrix side's coordinates of x."""
    ((vectors, signs, _),) = parts
    return _signed(signs, vectors.T @ x)


def _whole_synthesis(parts, c):
    """A whole-matrix side's vector of coordinates c."""
    ((vectors, signs, _),) = parts
    return vectors @ _signed(signs, c)


def _folded_analysis(parts, x, rank):
    """A two-block side's coordinates of x, each block's from its half of the fold."""
    c = np.empty(rank)
    for (vectors, signs, where), half in zip(parts, _fold(x)):
        c[where] = _signed(signs, vectors.T @ half)
    return c


def _folded_synthesis(parts, c):
    """A two-block side's vector of coordinates c, unfolded from each block's half."""
    return _unfold(*(vectors @ _signed(signs, c[where]) for vectors, signs, where in parts))


def _stored_columns(parts, rank):
    """A whole-matrix side's dense vectors: its stored ones, times their signs if it has any."""
    ((vectors, signs, _),) = parts
    if signs is not None:
        vectors = vectors * signs
    vectors.setflags(write=False)
    return vectors


def _unfolded(parts, rank):
    """A two-block side's dense vectors: its ``_folded_synthesis`` of I, unfolded column by column.

    Each column lies in one half, so its unfold is one scaling by
    sqrt(1/2), negated in the bottom rows of an odd column.  Products
    with the identity's 0/1 columns and by +-1 are exact, so this gives
    their bits without forming the identity or a folded copy.
    """
    h = parts[1][0].shape[0]
    n = parts[0][0].shape[0] + h
    out = np.zeros((n, rank))
    for parity, (vectors, signs, where) in enumerate(parts):
        half = vectors[:h] * (_HALF_SQRT2 if signs is None else _HALF_SQRT2 * signs)
        out[:h, where] = half
        if parity:
            np.negative(half, out=half)
        out[n - h :, where] = half[::-1]
        del half  # before the next part's is made
        if vectors.shape[0] > h:  # the middle of an odd length, even
            out[h, where] = _signed(signs, vectors[h])
    out.setflags(write=False)
    return out


class _HalfSampleDecomposition(SpectralDecomposition):
    """A closed-form singular system whose right vectors sample cosines or
    sines at the half-integer points k + 1/2, k = 0..n-1.

    ``_half_sample(x)[j] = exp(-i pi j / 2n) sum_k x_k e^{-i pi j k / n}``,
    j = 0..n, is one FFT of x zero-padded to length 2n (Makhoul, IEEE
    TASSP 28, 1980): its real part is the DCT-II of x, sum_k x_k
    cos(pi j (k + 1/2) / n), and minus its imaginary part the DST-II, with
    sin in place of cos.  ``_from_half_sample`` is the matching synthesis.
    O(n log n) work and O(n) memory; the dense (n, rank) vectors are built
    only when read.
    """

    def __init__(self, shape, s):
        # Straight into the instance dict, past the frozen __setattr__.
        vars(self).update(
            singular_values=_readonly(s),
            rank_tolerance=0.0,
            _shape=shape,
            _n=shape[1],
        )

    @functools.cached_property
    def _shift(self):
        """exp(-i pi j / 2n), j = 0..n: the half-sample twiddle."""
        return np.exp(-0.5j * np.pi * np.arange(self._n + 1) / self._n)

    def _half_sample(self, x):
        return self._shift * np.fft.rfft(x, 2 * self._n)

    def _from_half_sample(self, spectrum):
        """x_k = sum_j w_j Re(X_j exp(i pi j (k + 1/2) / n)), k = 0..n-1, X = spectrum.

        X holds j = 0..len - 1, at most n, and is zero past them.  The
        weights are w_0 = w_n = 1/2 and w_j = 1 otherwise, as j = 0 and
        j = n appear once in the length-2n inverse FFT and the others twice.
        """
        n = self._n
        return n * np.fft.irfft(spectrum * self._shift[: spectrum.size].conj(), 2 * n)[:n]

    def _dense(self, wave, rows, cols, period, scale):
        """scale wave(2 pi m / period), m = rows (x) cols: a dense singular factor.

        m is reduced mod ``period`` in integers, so the angle stays below
        2 pi and exact to rounding.
        """
        _check_dense_dim(self._n, self.rank, "dense singular vectors")
        angle = 2.0 * np.pi / period * (np.outer(rows, cols) % period)
        return _readonly(scale * wave(angle))


class _GradientDecomposition(_HalfSampleDecomposition):
    """Singular system of ``GradientOperator(n)`` in closed form.

    D^T D is the Neumann Laplacian, diagonalized by the DCT-II, and D D^T
    the Dirichlet Laplacian, by the DST-I; both have eigenvalues
    4 sin^2(pi j / 2n) (Strang, SIAM Review 41, 1999).  So, for j = n-1
    down to 1, sigma_j = 2n sin(pi j / 2n), v_j[k] = sqrt(2/n)
    cos(pi j (k + 1/2) / n) and u_j[i] = -sqrt(2/n) sin(pi j (i + 1) / n),
    the sign making A v_j = sigma_j u_j.  The v_j go through the shared
    half-sample transform, the u_j through an FFT of the data with one
    leading zero, padded to length 2n.
    """

    def __init__(self, n):
        s = 2.0 * n * np.sin(np.pi * np.arange(n - 1, 0, -1) / (2.0 * n))
        super().__init__((n - 1, n), s)

    def _vectors(self, wave, rows, period):
        j = np.arange(self._n - 1, 0, -1)
        return self._dense(wave, rows, j, period, math.sqrt(2.0 / self._n))

    @functools.cached_property
    def left_vectors(self):
        return self._vectors(lambda t: -np.sin(t), np.arange(1, self._n), 2 * self._n)

    @functools.cached_property
    def right_vectors(self):
        return self._vectors(np.cos, 2 * np.arange(self._n) + 1, 4 * self._n)

    # Coordinate c[r] belongs to j = n-1-r, so the length-n arrays below,
    # indexed by j, hold the coordinates at [n-1 : 0 : -1].

    def _coordinates(self, by_j):
        n = self._n
        return math.sqrt(2.0 / n) * by_j[n - 1 : 0 : -1]

    def _by_j(self, c):
        n = self._n
        out = np.zeros(n)
        out[n - 1 : 0 : -1] = math.sqrt(2.0 / n) * c
        return out

    def _left_t(self, f):
        # Im sum_i f_i e^{-i pi j (i+1) / n} = -sum_i f_i sin(pi j (i+1) / n).
        padded = np.concatenate(([0.0], f))
        return self._coordinates(np.fft.rfft(padded, 2 * self._n).imag)

    def _left(self, c):
        # The DST-I is its own transpose: the same transform, the other way.
        return np.fft.rfft(self._by_j(c), 2 * self._n).imag[1 : self._n]

    def _right_t(self, x):
        return self._coordinates(self._half_sample(x)[: self._n].real)

    def _right(self, c):
        return self._from_half_sample(self._by_j(c))


class _GreenDecomposition(_HalfSampleDecomposition):
    """Singular system of ``GreenOperator(n)`` in closed form.

    K^{-1} = -n^2 L, with L = tridiag(-1, 2, -1) but 3 in both corners:
    the half-sample Dirichlet Laplacian, whose eigenvectors are the DST-II
    columns sin(pi k (j + 1/2) / n) with eigenvalues 4 sin^2(pi k / 2n),
    k = 1..n (Strang, SIAM Review 41, 1999).  So sigma_k = 1 / (4 n^2
    sin^2(pi k / 2n)), already nonincreasing in k, v_k[j] = c_k
    sin(pi k (j + 1/2) / n) with c_k = sqrt(2/n) but c_n = sqrt(1/n), and
    u_k = -v_k, since K = -V diag(sigma) V^T.  Coordinate c[r] belongs to
    k = r + 1.
    """

    def __init__(self, n):
        s = 1.0 / (4.0 * n * n * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * n)) ** 2)
        super().__init__((n, n), s)

    @functools.cached_property
    def _scale(self):
        """c_k for k = 1..n."""
        c = np.full(self._n, math.sqrt(2.0 / self._n))
        c[-1] = math.sqrt(1.0 / self._n)
        return c

    @functools.cached_property
    def right_vectors(self):
        k = np.arange(1, self._n + 1)
        return self._dense(np.sin, 2 * np.arange(self._n) + 1, k, 4 * self._n, self._scale)

    @functools.cached_property
    def left_vectors(self):
        return _readonly(-self.right_vectors)

    def _left_t(self, f):
        # <u_k, f> = -<v_k, f> = c_k Im exp(-i pi k / 2n) sum_j f_j e^{-i pi k j / n}.
        return self._scale * self._half_sample(f)[1:].imag

    def _right_t(self, x):
        return -self._left_t(x)

    def _right(self, c):
        spectrum = np.zeros(self._n + 1, dtype=complex)
        spectrum[1:] = -1j * self._scale * c  # Re(-i b e^{i t}) = b sin t
        spectrum[-1] *= 2.0  # k = n has weight 1/2
        return self._from_half_sample(spectrum)

    def _left(self, c):
        return -self._right(c)


def svd_decompose(op, rank_tolerance=DEFAULT_RANK_TOLERANCE):
    """Singular system of a dense or Toeplitz operator truncated at ``rank_tolerance``, for alpha = 0.

    An exactly symmetric matrix (``A == A.T`` entry for entry) is factored
    by ``np.linalg.eigh``, as sigma_i = |lambda_i|, v_i = q_i and u_i =
    sign(lambda_i) q_i, any other by ``np.linalg.svd``, and one with
    ``A[::-1, ::-1] == +-A`` bit for bit as two half-size blocks, in
    the bases of vectors even and odd under reversal.  A matrix at least
    256 wide first tries one random block of 32 columns, which serves
    when its checks pass: hilbert at n = 1024, with 24 values above
    max(m, n) eps sigma_1, takes ~12 ms instead of ~250 ms.  Every pair
    the block keeps is checked, but a part above that limit orthogonal
    to its fixed-seed probes can be left out (``_sketch``).  Values at
    or below ``rank_tolerance * sigma_1`` are truncated into the null
    space, as ``minimal_norm_solution`` wants; each call factors anew.  A
    problem's ``decomp`` is the untruncated ``op._system`` instead.  Both
    kinds take the one path ``_matrix_system`` from their ``_rows``; a
    ``ToeplitzOperator`` is factored as its matrix, mostly without
    building it, with the same bits whether ``matrix`` was read or not.
    Dimensions are capped at ``MAX_DENSE_DIM``.

    Raises
    ------
    UnsupportedKindError
        For operators of other kinds; matrix-free operators are never
        materialized on the caller's behalf.
    SizeLimitError
        Above ``MAX_DENSE_DIM``.
    """
    if not isinstance(op, (DenseOperator, ToeplitzOperator)):
        raise UnsupportedKindError(
            f"svd_decompose requires a dense or Toeplitz operator, got {type(op).__name__}"
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
    if not np.isfinite(s).all() or np.any(s < 0):
        raise InvalidParameterError("singular_values must be finite and >= 0")
    return s / (s**2 + a)


def null_space_residual(decomp, f):
    """Norm of the component of f orthogonal to the range of A."""
    f = _as_data(f, decomp.range_dim, "f")
    return float(np.linalg.norm(f - decomp.project_range(f)))


def minimal_norm_solution(decomp, f):
    """Pseudo-inverse solution y with A y = f and y orthogonal to null(A).

    Requires f to lie in the range of A up to the decomposition's rank
    tolerance; intended for constructing and checking exact problems.  An
    untruncated system, of tolerance 0 (an operator's ``_system``, and so a
    problem's ``decomp``), is read at ``DEFAULT_RANK_TOLERANCE``, the cut
    ``make_problem`` makes for y: its values at or below that times
    sigma_1 count as null space, in the range test and in the solve.

    Raises
    ------
    NotInRangeError
        If the component of f outside the kept left vectors exceeds the
        tolerance times ``||f||``.
    InvalidParameterError
        If f holds inf or nan.
    """
    f = _as_data(f, decomp.range_dim, "f")
    tolerance = decomp.rank_tolerance or DEFAULT_RANK_TOLERANCE
    s = decomp.singular_values
    kept = _kept(s, tolerance)
    coeff = decomp.range_coefficients(f)
    out_of_range = float(np.linalg.norm(f - decomp._left(coeff * kept)))
    norm_f = float(np.linalg.norm(f))
    if out_of_range > tolerance * norm_f:
        raise NotInRangeError(
            "data has a null-space component of norm "
            f"{out_of_range:.3e} (limit {tolerance * norm_f:.3e})",
            residual=out_of_range,
        )
    inverted = np.zeros(s.shape)
    inverted[kept] = coeff[kept] / s[kept]
    return decomp._right(inverted)


def as_dense_matrix(op):
    """Materialize an operator of any kind but ``matrix_free`` as a new matrix.

    A ``matrix`` already read, as a dense operator's always is, is
    copied; otherwise the entries are built for the call by
    ``op._rows(0, m)``, and not cached.  Dimensions are capped at
    ``MAX_DENSE_DIM``; a matrix-free operator raises UnsupportedKindError.
    """
    if "matrix" in vars(op):
        return np.array(op.matrix)
    _check_dense_dim(op.range_dim, op.domain_dim, "dense matrix")
    return op._rows(0, op.range_dim)


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
    """Read a dense operator from the plain-text matrix format.

    A file that is not ASCII, a header that is not two integers >= 1, or a
    body that is not rows of reals of one length raises
    InvalidParameterError naming the file.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            data = np.loadtxt(fh, ndmin=2)
    except ValueError as error:  # UnicodeDecodeError is one
        raise InvalidParameterError(f"malformed matrix file {path}: {error}") from None
    if len(header) != 2:
        raise InvalidParameterError(f"malformed matrix header in {path}")
    names = [f"matrix {side} in the header of {path}" for side in ("rows", "cols")]
    rows, cols = (_check_count(_as_real(v, name), name) for v, name in zip(header, names))
    if data.shape != (rows, cols):
        raise DimensionMismatchError(
            f"matrix body {data.shape} does not match header ({rows}, {cols})"
        )
    return DenseOperator(data)
