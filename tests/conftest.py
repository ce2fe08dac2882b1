import os
from pathlib import Path

import numpy as np
import pytest

from regkit import DenseOperator, DiagonalOperator, MatrixFreeOperator

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests' child
# interpreters need it too when regkit is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


def matrix_free_view(op):
    """Re-expose any operator through callbacks only (hides its kind)."""
    return MatrixFreeOperator(
        op.range_dim, op.domain_dim, op.apply, op.apply_adjoint
    )


def gradient_callbacks(n):
    """The gradient_family operator n (x[i+1] - x[i]) by O(n) callbacks."""

    def adjoint(w):
        out = np.zeros(n)
        out[:-1] -= n * w
        out[1:] += n * w
        return out

    return MatrixFreeOperator(n - 1, n, lambda x: n * np.diff(x), adjoint)


def gradient_singular_values(n):
    """The closed form sigma_j = 2n sin(pi j / 2n), j = 1..n-1, of that operator."""
    return 2.0 * n * np.sin(np.pi * np.arange(1, n) / (2.0 * n))


def operator_zoo():
    """Named operators covering kinds, shapes, and rank deficiency."""
    rng = philox(11)
    tall = rng.standard_normal((9, 5))
    wide = rng.standard_normal((4, 7))
    zoo = [
        ("identity3", DenseOperator(np.eye(3))),
        ("shear", DenseOperator([[1.0, 1.0], [0.0, 1.0]])),
        ("tall_dense", DenseOperator(tall)),
        ("wide_dense", DenseOperator(wide)),
        ("diag_mixed", DiagonalOperator([2.0, 0.5, 0.0, 1.0])),
        ("matrix_free_tall", matrix_free_view(DenseOperator(tall))),
    ]
    return zoo


@pytest.fixture(scope="session")
def zoo():
    return operator_zoo()
