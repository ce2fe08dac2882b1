"""Exception types raised by regkit."""

__all__ = [
    "RegkitError",
    "DimensionMismatchError",
    "InvalidParameterError",
    "UnsupportedKindError",
    "SizeLimitError",
    "NotInRangeError",
    "DataTooNoisyError",
    "NoRootBelowError",
    "ConvergenceError",
    "UnknownProblemError",
]


class RegkitError(Exception):
    """Base class for all regkit errors."""


class DimensionMismatchError(RegkitError, ValueError):
    """A vector or matrix argument has an incompatible shape."""


class InvalidParameterError(RegkitError, ValueError):
    """A scalar parameter is outside its admissible range."""


class UnsupportedKindError(RegkitError, TypeError):
    """The operation requires a different operator kind (usually dense)."""


class SizeLimitError(RegkitError, ValueError):
    """The requested size exceeds the dense-factorization cutoff."""


class UnknownProblemError(RegkitError, ValueError):
    """The requested test problem is not in the catalog."""


class NotInRangeError(RegkitError, ValueError):
    """Data has a significant component outside the operator's range.

    Attributes
    ----------
    residual : float
        Norm of the offending null-space component.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


class DataTooNoisyError(RegkitError, ValueError):
    """The noisy data norm does not exceed C*delta.

    The discrepancy equation requires ||f_delta|| > C*delta; below that
    threshold the residual equation has no positive root.
    """

    def __init__(self, message, data_norm, threshold):
        super().__init__(message)
        self.data_norm = float(data_norm)
        self.threshold = float(threshold)


class NoRootBelowError(RegkitError, RuntimeError):
    """The discrepancy value exceeds the target even as alpha -> 0.

    Signals an understated noise level: as alpha -> 0 the residual tends
    to the norm of the data component outside the operator's range, which
    should be at most delta.

    Attributes
    ----------
    g_at_zero : float
        Discrepancy value at the smallest alpha probed.
    """

    def __init__(self, message, g_at_zero):
        super().__init__(message)
        self.g_at_zero = float(g_at_zero)


class ConvergenceError(RegkitError, RuntimeError):
    """An iteration exhausted its budget before meeting its tolerance.

    Diagnostic state (last iterate, achieved residual, iteration count)
    is attached as keyword attributes.  For a Golub-Kahan solve,
    ``achieved_residual`` is the certified relative error
    ||x_k - x|| / ||x_k|| at the budget and ``last_iterate`` is x_k.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics
        for key, value in diagnostics.items():
            setattr(self, key, value)
