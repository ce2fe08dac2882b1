"""Choosing alpha by residual matching.

With noise level delta known, pick the alpha whose residual equals
C * delta for a fixed C > 1.  The squared residual g(alpha) is strictly
increasing from ||P f_delta||^2 (the data component outside the range,
at most delta^2) up to ||f_delta||^2, so the equation has exactly one
root whenever ||f_delta|| > C delta.

Matching the residual strictly above the noise floor buys a guarantee:
the selected solution never exceeds the exact minimal-norm solution in
norm.
"""

import numpy as np

from regkit import (
    DiscrepancyConfig,
    add_noise,
    discrepancy_value,
    make_problem,
    regularized_solve_auto,
)

prob = make_problem("phillips", 48)
noisy = add_noise(prob, 1e-2, seed=5)
cfg = DiscrepancyConfig(C=1.5)
target = (cfg.C * noisy.delta) ** 2

print(f"problem: phillips n=48, ||f|| = {np.linalg.norm(prob.f):.4f}, "
      f"delta = {noisy.delta:.4e}, target residual C*delta = {cfg.C * noisy.delta:.4e}")
print()
print(f"{'alpha':>10s} {'g(alpha)':>14s}")
for alpha in np.logspace(-12, 12, 9):
    print(f"{alpha:10.1e} {discrepancy_value(prob.decomp, noisy.f_delta, alpha):14.6e}")
print(f"{'':>10s} {'-> increasing from ~0 to ||f_delta||^2 = %.6e' % np.linalg.norm(noisy.f_delta)**2}")
print()

solution, selection = regularized_solve_auto(prob.decomp, noisy.f_delta, noisy.delta, cfg)
print("root found:")
print(f"  alpha(delta)      = {selection.alpha:.6e}")
print(f"  achieved residual = {selection.achieved_residual:.10e}")
print(f"  target            = {cfg.C * noisy.delta:.10e}")
print(f"  root evaluations  = {selection.iterations}")
print()
half = discrepancy_value(prob.decomp, noisy.f_delta, selection.alpha / 2)
twice = discrepancy_value(prob.decomp, noisy.f_delta, 2 * selection.alpha)
print(f"certificate: g(alpha/2) = {half:.6e} < {target:.6e} < g(2 alpha) = {twice:.6e}")
print()
print(f"solution norms:  ||u_delta|| = {solution.solution_norm:.6f}  <=  "
      f"||y|| = {np.linalg.norm(prob.y):.6f}")
print(f"error to exact solution: {np.linalg.norm(solution.u - prob.y):.4e}")
