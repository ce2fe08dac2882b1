import os
from pathlib import Path

import numpy as np
import pytest

from regkit import (
    DenseOperator,
    DiagonalOperator,
    GradientOperator,
    GreenOperator,
    MatrixFreeOperator,
)
from regkit.problems import _CATALOG, _grid

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests' child
# interpreters need it too when regkit is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


def catalog_operator(name, n):
    """The catalog problem's operator as its builder makes it, with nothing read or factored."""
    return _CATALOG[name](n)[0]


def phillips_grid(n):
    """(t, h): the midpoints of n cells on [-6, 6], with t[n-1-i] = -t[i] bit for bit and an exact middle 0."""
    t, h = _grid(n, -6.0, 6.0)
    half = n // 2
    t[n - half :] = -t[half - 1 :: -1]
    t[half : n - half] = 0.0
    return t, h


def refuse_whole_matrix(monkeypatch, op):
    """Make ``op`` fail the test when its ``_rows`` is asked for all its rows at once.

    Reading a band passes: a factorization without the matrix reads the
    top half and its mirror, which never span all m >= 2 rows.
    """
    rows = op._rows

    def bands(start, stop):
        if stop - start >= op.range_dim:
            pytest.fail("the whole matrix was built")
        return rows(start, stop)

    monkeypatch.setattr(op, "_rows", bands)
    return op


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
        ("gradient6", GradientOperator(6)),
        ("green5", GreenOperator(5)),
        ("matrix_free_tall", matrix_free_view(DenseOperator(tall))),
    ]
    return zoo


@pytest.fixture(scope="session")
def zoo():
    return operator_zoo()
