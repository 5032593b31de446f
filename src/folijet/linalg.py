"""Dense linear solves whose entries are floats or series.

With A = A0 + A1, A0 the entries' values and A1 free of constant terms,
`inverse` inverts A0, each sample's matrix on its own, and
X = A0^-1 (b - A1 X) is iterated from X = A0^-1 b (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).  A1 raises degrees, so a
step's degree-d coefficients read only those of X below d: once those are
final, each further step recomputes them from the same floats by the same
operations.  So after d steps degree <= d is final, extra steps repeat it
bit for bit, and a space with a larger cap gives the same bits.  Entries
may be batches (see `scalars`).  Two rules, both blind to scale, judge
symmetric float matrices (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002): one `solve` inverts is regular when its 2-norm
condition estimate is at most CONDITION_LIMIT, and a metric or vertical
Hessian is positive definite when its least eigenvalue over its largest
magnitude is above 1 / CONDITION_LIMIT.  `jacobian_condition` holds the
Jacobians of a transition, not symmetric, to the first by singular values.

This module handles every dense matrix of the engine; `riemann` inverts
the metric through `inverse` too.  From n = 2 on, LAPACK (through numpy's
batched routines) factors, inverts and finds eigen- and singular values.
A 1 x 1 matrix, all a codimension-one foliation has, is read in closed
form: for one, LAPACK returns exactly a as eigenvalue, |a| as singular
value, the sign of a as that of det and 1 / a as inverse, so the closed forms give the same bits
without the calls or the workspace the first call maps.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import ShapeError, SingularHessian, SingularMetric
from .scalars import Series, raise_where, value_of

__all__ = ["solve"]

CONDITION_LIMIT = 1e12


def condition_number(h):
    """2-norm condition number of symmetric float matrices (..., q, q), inf
    where one is singular or not finite (closed form for q = 1)."""
    h = np.asarray(h, dtype=float)
    eig = np.abs(h[..., 0] if h.shape[-1] == 1 else np.linalg.eigvalsh(
        np.where(np.isfinite(h).all(axis=(-2, -1), keepdims=True), h, 0.0)))
    with np.errstate(all="ignore"):
        cond = eig.max(axis=-1) / eig.min(axis=-1)
    return np.where(cond == cond, cond, np.inf)  # NaN: zero or not finite


def jacobian_condition(j):
    """Largest 2-norm condition number, from singular values, of Jacobians
    (..., q, q) of one map on a connected set: inf where one is singular or
    not finite, or where two differ in the sign of det, as the map folds.
    For q = 1 the singular value is |j| and the sign of det that of j."""
    j = np.where(np.isfinite(j).all(axis=(-2, -1), keepdims=True), j, 0.0)
    if j.shape[-1] == 1:
        s, sign = np.abs(j[..., 0]), np.sign(j[..., 0, 0])
    else:
        s, sign = np.linalg.svd(j, compute_uv=False), np.linalg.slogdet(j)[0]
    with np.errstate(all="ignore"):
        cond = np.max(s[..., 0] / s[..., -1])
    return np.inf if cond != cond or np.ptp(sign) else cond


def definiteness(h):
    """Least eigenvalue over largest magnitude of symmetric float matrices
    (..., q, q), -inf where one is zero or not finite.  For q = 1 the
    eigenvalue is h itself, so the ratio is 1.0 where h > 0, -1.0 where
    h < 0."""
    h = np.asarray(h, dtype=float)
    eig = h[..., 0] if h.shape[-1] == 1 else np.linalg.eigvalsh(
        np.where(np.isfinite(h).all(axis=(-2, -1), keepdims=True), h, 0.0))
    with np.errstate(all="ignore"):
        ratio = eig[..., 0] / np.abs(eig).max(axis=-1)
    return np.where(ratio == ratio, ratio, -np.inf)  # NaN: zero or not finite


def inverse(a):
    """Inverses of regular float matrices (..., n, n): numpy's batched LU,
    or 1 / a for n = 1.  Callers judge regularity first."""
    if a.shape[-1] != 1:
        return np.linalg.inv(a)
    with np.errstate(divide="ignore", over="ignore"):  # as quiet as LAPACK
        return 1.0 / a


def check_metric(g, name, points):
    """Raise SingularMetric where the values `g` of metric `name` at `points`
    are not positive definite, showing `definiteness`."""
    ratio = definiteness(g)
    raise_where(ratio <= 1 / CONDITION_LIMIT, SingularMetric, "metric {!r} "
                "has eigenvalue ratio {:.3e} at {}", name, ratio, points)


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
    cond = condition_number(a0)
    raise_where(cond > CONDITION_LIMIT, SingularHessian,
                "condition estimate {:.3e}", cond)
    inv = inverse(a0).T.swapaxes(0, 1)  # inv[i, k]: a float or a batch
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
