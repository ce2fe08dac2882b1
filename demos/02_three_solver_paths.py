"""One minimizer, three independent routes.

The penalized problem  min ||A u - f||^2 + alpha ||u||^2  has a unique
solution that can be computed three ways:

  primal    solve (A^T A + alpha I) u = A^T f      (domain space)
  dual      solve (A A^T + alpha I) w = f, u = A^T w  (range space)
  spectral  u = sum_i sigma_i/(sigma_i^2+alpha) <u_i, f> v_i

The dual route is the interesting one: it is defined for *any* data
vector, even one far outside the range of A, and its norm is capped by
1/(2 sqrt(alpha)).  The three routes agreeing to ~1e-10 on an
ill-conditioned instance is a strong mutual certificate.
"""

import numpy as np

from regkit import DenseOperator, make_problem, add_noise, solve_dual, solve_primal, solve_spectral

prob = make_problem("hilbert", 12)
noisy = add_noise(prob, 1e-4, seed=2)
# On the operator itself primal and dual would both filter through
# prob.decomp; on the explicit matrix they take their own QR forms.
dense = DenseOperator(prob.op.matrix)
print(f"problem: hilbert n=12, condition ~ {prob.decomp.singular_values[0] / prob.decomp.singular_values[-1]:.2e}")
print(f"noise level delta = {noisy.delta:.3e}")
print()

print(f"{'alpha':>8s} {'|u_primal - u_dual|':>20s} {'|u_primal - u_spec|':>20s} {'residual':>12s}")
for alpha in (1e-6, 1e-4, 1e-2, 1.0):
    primal = solve_primal(dense, noisy.f_delta, alpha)
    dual = solve_dual(dense, noisy.f_delta, alpha)
    spectral = solve_spectral(prob.decomp, noisy.f_delta, alpha)
    print(f"{alpha:8.0e} {np.linalg.norm(primal.u - dual.u):20.3e} "
          f"{np.linalg.norm(primal.u - spectral.u):20.3e} {primal.residual_norm:12.4e}")

print()
print("=== why regularize at all ===")
naive = np.linalg.lstsq(np.asarray(prob.op.matrix), noisy.f_delta, rcond=None)[0]
tame = solve_primal(prob.op, noisy.f_delta, 1e-6).u
print(f"unregularized least squares:  |u| = {np.linalg.norm(naive):12.4e}   "
      f"error to exact = {np.linalg.norm(naive - prob.y):12.4e}")
print(f"penalized (alpha = 1e-6):     |u| = {np.linalg.norm(tame):12.4e}   "
      f"error to exact = {np.linalg.norm(tame - prob.y):12.4e}")
print()
print("A 1e-4 data perturbation blows the raw solve apart; the penalty")
print("trades a little bias for orders of magnitude of stability.")
