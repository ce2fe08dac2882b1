"""regkit: penalized least-squares solvers for ill-posed linear systems.

Solves A u = f from noisy data by minimizing ||A u - f||^2 + alpha ||u||^2,
with the penalty weight chosen either a priori or by matching the residual
to a multiple of the known noise level.  Every bound and identity the
method relies on ships as an executable test; see the README and the
demos/ directory for guided tours.
"""

from .errors import (
    ConvergenceError,
    DataTooNoisyError,
    DimensionMismatchError,
    InvalidParameterError,
    NoRootBelowError,
    NotInRangeError,
    RegkitError,
    SizeLimitError,
    UnknownProblemError,
    UnsupportedKindError,
)
from .operators import (
    DEFAULT_RANK_TOLERANCE,
    MAX_DENSE_DIM,
    DenseOperator,
    DiagonalOperator,
    LinearOperator,
    MatrixFreeOperator,
    SpectralDecomposition,
    as_dense_matrix,
    diagonal_decomposition,
    filter_factors,
    minimal_norm_solution,
    null_space_residual,
    operator_norm_estimate,
    read_dense_text,
    svd_decompose,
    write_dense_text,
)
from .tikhonov import (
    IterativeSolverConfig,
    RegularizedSolution,
    apriori_alpha_schedule,
    functional_value,
    solution_operator_norm,
    solve_dual,
    solve_primal,
    solve_shifted_normal,
    solve_spectral,
)
from .discrepancy import (
    AlphaSelection,
    DiscrepancyConfig,
    discrepancy_value,
    regularized_solve_auto,
    solve_alpha,
)
from .problems import (
    NoisyData,
    PROBLEM_NAMES,
    ProblemInstance,
    add_noise,
    export_problem,
    make_problem,
    problem_descriptor,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DataTooNoisyError",
    "DimensionMismatchError",
    "InvalidParameterError",
    "NoRootBelowError",
    "NotInRangeError",
    "RegkitError",
    "SizeLimitError",
    "UnknownProblemError",
    "UnsupportedKindError",
    "DEFAULT_RANK_TOLERANCE",
    "MAX_DENSE_DIM",
    "DenseOperator",
    "DiagonalOperator",
    "LinearOperator",
    "MatrixFreeOperator",
    "SpectralDecomposition",
    "as_dense_matrix",
    "diagonal_decomposition",
    "filter_factors",
    "minimal_norm_solution",
    "null_space_residual",
    "operator_norm_estimate",
    "read_dense_text",
    "svd_decompose",
    "write_dense_text",
    "IterativeSolverConfig",
    "RegularizedSolution",
    "apriori_alpha_schedule",
    "functional_value",
    "solution_operator_norm",
    "solve_dual",
    "solve_primal",
    "solve_shifted_normal",
    "solve_spectral",
    "AlphaSelection",
    "DiscrepancyConfig",
    "discrepancy_value",
    "regularized_solve_auto",
    "solve_alpha",
    "NoisyData",
    "PROBLEM_NAMES",
    "ProblemInstance",
    "add_noise",
    "export_problem",
    "make_problem",
    "problem_descriptor",
    "__version__",
]
