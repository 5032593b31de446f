"""Dense linear solves whose entries are floats or series.

numpy's solvers want float dtypes; the Newton steps of the Legendre chain
and the spray Jacobian solve systems whose entries are series, so Gaussian
elimination with partial pivoting is coded directly.  Pivoting compares
the entries' float values via `value_of`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularHessian
from .scalars import value_of

__all__ = ["solve"]


def _as_object_matrix(a):
    if len({len(row) for row in a}) > 1:
        raise ShapeError("ragged matrix")
    return np.array([list(row) for row in a], dtype=object)


def solve(a, b, *, singular_tol=1e-9):
    """Solve a X = b by elimination with partial pivoting.

    `a` is n x n, `b` is n x m; entries may be floats or series.  Raises
    SingularHessian when a pivot magnitude or the determinant falls at or
    below `singular_tol`.
    """
    A = _as_object_matrix(a)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ShapeError(f"matrix is {A.shape}, expected square")
    B = _as_object_matrix(b)
    if B.shape[0] != n:
        raise ShapeError("right-hand side row count mismatch")
    det = 1.0
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(value_of(A[i, col])))
        pivot = value_of(A[pivot_row, col])
        if abs(pivot) <= singular_tol:
            raise SingularHessian(
                f"pivot magnitude {abs(pivot):.3e} at column {col}")
        if pivot_row != col:
            A[[col, pivot_row]] = A[[pivot_row, col]]
            B[[col, pivot_row]] = B[[pivot_row, col]]
            det = -det
        det = det * pivot
        for i in range(col + 1, n):
            factor = A[i, col] / A[col, col]
            for j in range(col + 1, n):
                A[i, j] = A[i, j] - factor * A[col, j]
            for j in range(B.shape[1]):
                B[i, j] = B[i, j] - factor * B[col, j]
    if abs(det) <= singular_tol:
        raise SingularHessian(f"determinant magnitude {abs(det):.3e}")
    X = np.empty_like(B)
    for col in range(n - 1, -1, -1):
        for j in range(B.shape[1]):
            s = B[col, j]
            for k in range(col + 1, n):
                s = s - A[col, k] * X[k, j]
            X[col, j] = s / A[col, col]
    return X
