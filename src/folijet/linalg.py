"""Dense linear solves whose entries are floats or series.

With A = A0 + A1, A0 the entries' values and A1 free of constant terms,
numpy's batched LU inverts A0, each sample's matrix on its own, and
X = A0^-1 (b - A1 X) is iterated from X = A0^-1 b (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).  A1 raises degrees, so a
step's degree-d coefficients read only those of X below d: once those are
final, each further step recomputes them from the same floats by the same
operations.  So after d steps degree <= d is final, extra steps repeat it
bit for bit, and a space with a larger cap gives the same bits.  Entries
may be batches (see `scalars`).  Every float matrix the package inverts
is symmetric and regular by one rule, blind to its scale: a 2-norm
condition estimate of at most CONDITION_LIMIT (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002).
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import ShapeError, SingularHessian
from .scalars import Series, raise_where, value_of

__all__ = ["solve"]

CONDITION_LIMIT = 1e12
# the least eigenvalue a positive-definite metric or Hessian may show
SINGULAR_TOLERANCE = 1e-9


def condition_number(h):
    """2-norm condition number of symmetric float matrices (..., q, q), inf
    where one is singular or not finite: closed form for q = 1, eigvalsh
    beyond."""
    h = np.asarray(h, dtype=float)
    finite = np.isfinite(h).all(axis=(-2, -1))
    with np.errstate(all="ignore"):
        if h.shape[-1] == 1:
            big = small = np.abs(h[..., 0, 0])
        else:
            eig = np.abs(np.linalg.eigvalsh(
                np.where(finite[..., None, None], h, 0.0)))
            big, small = eig.max(axis=-1), eig.min(axis=-1)
        return np.where(finite & (small > 0.0), big / small, np.inf)


def check_regular(a, error, message, *values):
    """`raise_where` for the symmetric float matrices `a` (..., n, n) whose
    condition estimate, the first value shown, is above CONDITION_LIMIT."""
    cond = condition_number(a)
    raise_where(cond > CONDITION_LIMIT, error, message, cond, *values)


def _times(m, x):
    """The matrix-vector product m x of nested lists."""
    return [reduce(add, [mk * xk for mk, xk in zip(row, x)]) for row in m]


def solve(a, b):
    """Solve a X = b for the list X of n entries.

    `a` is n x n and its values are symmetric, `b` holds n entries;
    entries may be floats or series, or batches of either.  Raises
    SingularHessian ("condition estimate ...") unless the values of `a` are
    regular in every sample.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ShapeError(f"cannot solve an {n}-row system with these shapes")
    values = np.broadcast_arrays(*[value_of(x) for row in a for x in row])
    # the values as (n, n), or as (B, n, n) for a batch
    a0 = np.array(values).T.reshape(values[0].shape + (n, n))
    check_regular(a0, SingularHessian, "condition estimate {:.3e}")
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
