"""Dense linear solves whose entries are floats or series.

With A = A0 + A1, A0 the entries' values and A1 free of constant terms,
numpy's batched LU inverts A0, each sample's matrix on its own, and
X = A0^-1 (b - A1 X) is iterated from X = A0^-1 b (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).  A1 raises degrees, so a
step's degree-d coefficients read only those of X below d: once those are
final, each further step recomputes them from the same floats by the same
operations.  So after d steps degree <= d is final, extra steps repeat it
bit for bit, and a space with a larger cap gives the same bits.  Entries
may be batches (see `scalars`).
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import ShapeError, SingularHessian
from .scalars import Series, raise_where, value_of

__all__ = ["solve"]

SINGULAR_TOLERANCE = 1e-9


def _times(m, x):
    """The matrix-vector product m x of nested lists."""
    return [reduce(add, [mk * xk for mk, xk in zip(row, x)]) for row in m]


def solve(a, b):
    """Solve a X = b for the list X of n entries.

    `a` is n x n, `b` holds n entries; entries may be floats or series, or
    batches of either.  Raises SingularHessian when the determinant of the
    values of `a` falls at or below SINGULAR_TOLERANCE, in any sample.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ShapeError(f"cannot solve an {n}-row system with these shapes")
    values = np.broadcast_arrays(*[value_of(x) for row in a for x in row])
    # the values as (n, n), or as (B, n, n) for a batch
    a0 = np.array(values).T.reshape(values[0].shape + (n, n))
    det = np.abs(np.linalg.det(a0))
    raise_where(det <= SINGULAR_TOLERANCE, SingularHessian,
                "determinant magnitude {:.3e}", det)
    inv = np.linalg.inv(a0).T.swapaxes(0, 1)  # inv[i, k]: a float or a batch
    a1 = [[x - value_of(x) for x in row] for row in a]
    X = _times(inv, b)
    for _ in range(max((x.space.degree for row in a for x in row
                        if type(x) is Series), default=0)):
        step = _times(inv, [bi - s for bi, s in zip(b, _times(a1, X))])
        if all(np.array_equal(getattr(x, "coeffs", x), getattr(y, "coeffs", y))
               for x, y in zip(X, step)):
            break  # a fixed point: every further step repeats it
        X = step
    return X
