"""Dense linear solves whose entries are floats or series.

numpy's solvers want float dtypes; the Newton steps of the Legendre chain
and the spray Jacobian solve systems whose entries are series, so Gaussian
elimination with partial pivoting is coded directly.  Pivoting compares
the entries' float values via `value_of`.  Entries may be batches (see
`scalars`): each sample then picks its pivots from its own values.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularHessian
from .scalars import Series, raise_where, value_of, where

__all__ = ["solve"]

SINGULAR_TOLERANCE = 1e-9


def _as_object_matrix(a):
    rows = [list(row) for row in a]
    if len({len(row) for row in rows}) > 1:
        raise ShapeError("ragged matrix")
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):  # a batch stays one entry
            out[i, j] = x
    return out


def _divider(pivot):
    """x -> x / pivot; a series pivot's reciprocal is built once, as
    x / p multiplies x by p's reciprocal anyway."""
    if isinstance(pivot, Series):
        reciprocal = pivot._reciprocal()
        return lambda x: x * reciprocal
    return lambda x: x / pivot


def _swap_rows(M, col, rows):
    """Swap row `col` of M with row rows[s] in each sample s."""
    for i in np.unique(rows):
        if i != col:
            mask = rows == i
            for j in range(M.shape[1]):
                x, y = M[col, j], M[i, j]
                M[col, j], M[i, j] = where(mask, y, x), where(mask, x, y)


def solve(a, b):
    """Solve a X = b by elimination with partial pivoting.

    `a` is n x n, `b` is n x m; entries may be floats or series, or batches
    of either.  Raises SingularHessian when a pivot magnitude or the
    determinant falls at or below SINGULAR_TOLERANCE, in any sample.
    """
    A = _as_object_matrix(a)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ShapeError(f"matrix is {A.shape}, expected square")
    B = _as_object_matrix(b)
    if B.shape[0] != n:
        raise ShapeError("right-hand side row count mismatch")
    det = 1.0
    dividers = []
    for col in range(n):
        values = [value_of(A[i, col]) for i in range(col, n)]
        if any(type(v) is np.ndarray for v in values):
            magnitudes = np.abs(np.broadcast_arrays(*values))
            rows = col + magnitudes.argmax(axis=0)  # the first largest
            pivot = np.choose(rows - col, np.broadcast_arrays(*values))
            raise_where(np.abs(pivot) <= SINGULAR_TOLERANCE, SingularHessian,
                        "pivot magnitude {:.3e} at column {}",
                        np.abs(pivot), col)
            swapped = rows != col
            if swapped.any():
                _swap_rows(A, col, rows)
                _swap_rows(B, col, rows)
                det = np.where(swapped, -det, det)
        else:
            pivot_row = col + max(range(n - col), key=lambda i: abs(values[i]))
            pivot = values[pivot_row - col]
            if abs(pivot) <= SINGULAR_TOLERANCE:
                raise SingularHessian(
                    f"pivot magnitude {abs(pivot):.3e} at column {col}")
            if pivot_row != col:
                A[[col, pivot_row]] = A[[pivot_row, col]]
                B[[col, pivot_row]] = B[[pivot_row, col]]
                det = -det
        det = det * pivot
        divide = _divider(A[col, col])
        dividers.append(divide)
        for i in range(col + 1, n):
            factor = divide(A[i, col])
            for j in range(col + 1, n):
                A[i, j] = A[i, j] - factor * A[col, j]
            for j in range(B.shape[1]):
                B[i, j] = B[i, j] - factor * B[col, j]
    raise_where(np.abs(det) <= SINGULAR_TOLERANCE, SingularHessian,
                "determinant magnitude {:.3e}", np.abs(det))
    X = np.empty_like(B)
    for col in range(n - 1, -1, -1):
        divide = dividers[col]
        for j in range(B.shape[1]):
            s = B[col, j]
            for k in range(col + 1, n):
                s = s - A[col, k] * X[k, j]
            X[col, j] = divide(s)
    return X
