"""Dense linear algebra over generic scalar entries.

numpy's solvers want float dtypes; the matrices here may hold dual or
Taylor scalars, so Gaussian elimination with partial pivoting is coded
directly.  Pivoting compares underlying float magnitudes via `value_of`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularHessian
from .scalars import value_of

__all__ = ["solve", "solve_with_det"]


def _as_object_matrix(a):
    arr = np.empty((len(a), len(a[0])), dtype=object)
    for i, row in enumerate(a):
        if len(row) != arr.shape[1]:
            raise ShapeError("ragged matrix")
        for j, x in enumerate(row):
            arr[i, j] = x
    return arr


def solve_with_det(a, b, *, singular_tol=1e-9):
    """Solve a X = b by elimination; returns (X, det(a)).

    `a` is n x n, `b` is n x m; entries may be any scalar kind with
    arithmetic.  Raises SingularHessian when a pivot magnitude or the
    accumulated determinant falls at or below `singular_tol`.
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
        if abs(value_of(A[pivot_row, col])) <= singular_tol:
            raise SingularHessian(
                f"pivot magnitude {abs(value_of(A[pivot_row, col])):.3e} "
                f"at column {col}"
            )
        if pivot_row != col:
            A[[col, pivot_row]] = A[[pivot_row, col]]
            B[[col, pivot_row]] = B[[pivot_row, col]]
            det = -det
        pivot = A[col, col]
        det = det * pivot
        for i in range(col + 1, n):
            factor = A[i, col] / pivot
            for j in range(col + 1, n):
                A[i, j] = A[i, j] - factor * A[col, j]
            for j in range(B.shape[1]):
                B[i, j] = B[i, j] - factor * B[col, j]
            A[i, col] = 0.0
    if abs(value_of(det)) <= singular_tol:
        raise SingularHessian(f"determinant magnitude {abs(value_of(det)):.3e}")
    X = np.empty_like(B)
    for col in range(n - 1, -1, -1):
        for j in range(B.shape[1]):
            s = B[col, j]
            for k in range(col + 1, n):
                s = s - A[col, k] * X[k, j]
            X[col, j] = s / A[col, col]
    return X, det


def solve(a, b, *, singular_tol=1e-9):
    return solve_with_det(a, b, singular_tol=singular_tol)[0]
