"""A bound that ignores how big the operator is.

The scaled forward-difference family has ||D_n|| ~ 2n: it grows without
bound as the grid refines, the finite-dimensional stand-in for an
unbounded operator.  Yet the data-to-solution map of the penalized
problem, (D^T D + alpha I)^{-1} D^T, stays below 1/(2 sqrt(alpha)) for
every n: the ceiling depends on the penalty alone.

This is the quantitative fact that lets the whole method run on
differentiation-like problems where the operator norm explodes.  The
family's singular values are known in closed form, so n runs past the
dense-matrix cap of 4096 at O(n) memory.
"""

from regkit.experiments import bounds_table, run_verify_bounds

report = run_verify_bounds(
    "gradient_family",
    ns=[16, 64, 256, 1024, 4096, 16384, 100000],
    alphas=[1e-4, 1e-2, 1.0],
)
print(bounds_table(report))
print("Same table from the command line:")
print("  regkit verify-bounds --family gradient_family "
      "--ns 16,64,256,1024,4096,16384,100000 --alphas 1e-4,1e-2,1")
