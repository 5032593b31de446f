"""Scalar arithmetic kernel: one truncated multivariate Taylor series.

A ``Series`` holds the float Taylor coefficients of a quantity with respect
to a few seeded variables, truncated to a ``Space``.  A space is a tuple of
variable groups ``(count, cap)``; its monomials are the products of one
monomial of total degree <= cap from each group.  Every derivative the
package takes is a seed and a read of this one type:

* ``((1, r),)`` -- a univariate Taylor series of order r, carrying the jet
  of a curve through a map;
* ``((n, 1),)`` and ``((n, 2),)`` -- a value with its gradient, or with its
  gradient and Hessian, in n variables;
* ``((1, r), (n, 1))`` -- Taylor coefficients with their gradients, for the
  Jacobian of jet transport;
* ``((n, 2), (n, 1))`` -- a gradient and Hessian that carry their own
  gradient, for the spray Jacobian;
* ``((q, 2),) * r`` -- the Legendre chain, one group per stage.

A product is one gather-multiply-``bincount`` over index tables cached per
space.  An elementary function f is composed as
``f(a0 + h) = sum_k f_k(a0) h^k`` by Horner, where ``f_k`` are its
univariate Taylor coefficients at the value a0 (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Plain floats stay
plain floats.  Series are treated as immutable, every operation is pure,
and a non-finite coefficient anywhere raises DomainError.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError, SpaceMismatch

__all__ = ["Space", "Series", "space", "second_order", "value_of",
           "exp", "log", "sin", "cos", "tan", "sqrt", "atan",
           "power", "UNARY_FUNCTIONS"]


def _group_monomials(count, cap):
    """Exponent rows of total degree <= cap in graded order: 1, each
    variable, then each product of two variables (i <= k), and so on."""
    rows = [np.bincount(np.asarray(combo, dtype=np.intp), minlength=count)
            for degree in range(cap + 1)
            for combo in combinations_with_replacement(range(count), degree)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), count)


def _group_table(exponents, cap):
    """(i, j, k) with monomial i times monomial j equal to monomial k."""
    count = exponents.shape[1]
    total = exponents[:, None, :] + exponents[None, :, :]
    i, j = np.nonzero(total.sum(axis=-1) <= cap)
    radix = (cap + 1) ** np.arange(count, dtype=np.int64)
    keys = exponents @ radix
    order = np.argsort(keys)
    k = order[np.searchsorted(keys, total[i, j] @ radix, sorter=order)]
    return i, j, k


class Space:
    """The monomials of a tuple of variable groups ``(count, cap)``.

    ``exponents[m]`` holds monomial m's powers of every variable, numbered
    across the groups in order.  Monomial 0 is the constant, and the first
    group varies slowest, so a coefficient array reshapes to ``shape``,
    one axis per group.
    """

    def __init__(self, groups):
        self.groups = groups
        exponents = np.zeros((1, 0), dtype=np.int64)
        i = j = k = np.zeros(1, dtype=np.int64)
        shape = []
        for count, cap in groups:
            group = _group_monomials(count, cap)
            gi, gj, gk = _group_table(group, cap)
            s = len(group)
            i, j, k = ((a[:, None] * s + b[None, :]).ravel()
                       for a, b in ((i, gi), (j, gj), (k, gk)))
            exponents = np.hstack([np.repeat(exponents, s, axis=0),
                                   np.tile(group, (len(exponents), 1))])
            shape.append(s)
        self.table = (i, j, k)
        self.exponents = exponents
        self.shape = tuple(shape)
        self.size = len(exponents)
        self.zeros = np.zeros(self.size)
        # (s - value)^k vanishes for every series s once k exceeds this
        self.degree = sum(cap for _, cap in groups)
        # the monomial of each variable (out of range for a cap-0 group)
        unit = exponents.sum(axis=1) == 1
        self.variables = np.array(
            [np.append(np.flatnonzero(unit & (exponents[:, v] == 1)),
                       self.size)[0] for v in range(exponents.shape[1])],
            dtype=np.intp)

    def __repr__(self):
        return f"Space({self.groups!r})"

    def constant(self, value):
        coeffs = np.zeros(self.size)
        coeffs[0] = value
        return _series(self, coeffs)

    def seed(self, value, *variables):
        """``value`` plus each listed variable; value is a float or series."""
        if isinstance(value, Series):
            coeffs = value._coerce(self).copy()
        else:
            coeffs = np.zeros(self.size)
            coeffs[0] = value
        for v in variables:
            coeffs[self.variables[v]] += 1.0
        return _series(self, coeffs)


@lru_cache(maxsize=64)
def space(groups):
    """The shared Space of a tuple of groups ``(count, cap)``."""
    return Space(tuple((int(count), int(cap)) for count, cap in groups))


def _plain(x):
    return type(x) is float or type(x) is int or isinstance(x, numbers.Real)


def _series(sp, coeffs):
    """A series on a trusted coefficient array; rejects non-finite entries
    (0 * x is NaN exactly when x is not finite)."""
    if math.isnan(sp.zeros.dot(coeffs)):
        raise DomainError("non-finite series coefficient")
    out = object.__new__(Series)
    out.space = sp
    out.coeffs = coeffs
    return out


class Series:
    """A truncated multivariate Taylor series: float coefficients over a space.

    ``coeffs[m]`` is the coefficient of monomial m, i.e. the partial
    derivative of that multi-index divided by its factorial.
    """

    __slots__ = ("space", "coeffs")
    __array_ufunc__ = None  # numpy operands defer to the series

    def __init__(self, space, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (space.size,):
            raise SpaceMismatch(
                f"{coeffs.shape} coefficients for {space.size} monomials")
        if not np.isfinite(coeffs).all():
            raise DomainError("non-finite series coefficient")
        self.space, self.coeffs = space, coeffs

    @property
    def value(self):
        return float(self.coeffs[0])

    def __repr__(self):
        return f"Series({self.space.groups!r}, {self.coeffs.tolist()!r})"

    def _coerce(self, other_space):
        if self.space is not other_space:
            raise SpaceMismatch(
                f"spaces differ: {self.space.groups} vs {other_space.groups}")
        return self.coeffs

    def _new(self, coeffs):
        return _series(self.space, coeffs)

    def split(self, group):
        """The coefficient of each monomial of ``group``, in its order, as a
        series in the other groups (zero degree in ``group``)."""
        sp = self.space
        g = sp.shape[group]
        block = self.coeffs.reshape(math.prod(sp.shape[:group]), g, -1)
        out = np.zeros((g,) + block.shape)
        out[:, :, 0, :] = block.transpose(1, 0, 2)
        return [self._new(row.ravel()) for row in out]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if type(other) is Series:
            return self._new(self.coeffs + other._coerce(self.space))
        if not _plain(other):
            return NotImplemented
        coeffs = self.coeffs.copy()
        coeffs[0] += other
        return self._new(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coeffs)

    def __sub__(self, other):
        if type(other) is Series:
            return self._new(self.coeffs - other._coerce(self.space))
        return self + (-other) if _plain(other) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if _plain(other) else NotImplemented

    def __mul__(self, other):
        if type(other) is Series:
            sp = self.space
            b = other._coerce(sp)
            i, j, k = sp.table
            return _series(sp, np.bincount(k, self.coeffs[i] * b[j], sp.size))
        if not _plain(other):
            return NotImplemented
        return self._new(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Series:
            return self * other._reciprocal()
        if not _plain(other):
            return NotImplemented
        if other == 0.0:
            raise DomainError("division of a series by zero")
        return self._new(self.coeffs / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other if _plain(other) else NotImplemented

    def _reciprocal(self):
        a0 = self.value
        if a0 == 0.0:
            raise DomainError("division by series with zero value")
        return self._compose(_power_coefficients(a0, -1.0, 1.0 / a0,
                                                 self.space.degree))

    def __pow__(self, e):
        if isinstance(e, Series):
            return exp(log(self) * e)
        if not _plain(e):
            return NotImplemented
        e = float(e)
        if e.is_integer():
            n = abs(int(e))
            result, base = None, self
            while n:
                if n & 1:
                    result = base if result is None else result * base
                n >>= 1
                if n:
                    base = base * base
            if result is None:
                return self.space.constant(1.0)
            return result._reciprocal() if e < 0 else result
        a0 = self.value
        if a0 <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        return self._compose(_power_coefficients(a0, e, math.pow(a0, e),
                                                 self.space.degree))

    def __rpow__(self, other):
        return power(other, self) if _plain(other) else NotImplemented

    # -- composition with univariate functions -------------------------------

    def _compose(self, f):
        """sum_k f[k] (self - value)^k by Horner."""
        if not all(map(math.isfinite, f)):
            raise DomainError("non-finite derivative of an elementary function")
        sp = self.space
        i, j, k = sp.table
        h = self.coeffs.copy()
        h[0] = 0.0
        hj = h[j]
        out = np.zeros(sp.size)
        out[0] = f[-1]
        for fk in f[-2::-1]:
            out = np.bincount(k, out[i] * hj, sp.size)
            out[0] += fk
        return self._new(out)


# Univariate Taylor coefficients f_0..f_D of the elementary functions at a0


def _exp_coefficients(a0, D):
    try:
        f0 = math.exp(a0)
    except OverflowError:
        raise DomainError(f"exp({a0}) overflows") from None
    return [f0 / math.factorial(k) for k in range(D + 1)]


def _log_coefficients(a0, D):
    if a0 <= 0.0:
        raise DomainError(f"log of nonpositive value {a0}")
    return [math.log(a0)] + [-(-1.0 / a0) ** k / k for k in range(1, D + 1)]


def _power_coefficients(a0, e, f0, D):
    """(a0 + h)^e: f_k = f_(k-1) (e - k + 1) / (k a0)."""
    f = [f0]
    for k in range(1, D + 1):
        f.append(f[-1] * (e - k + 1) / (k * a0))
    return f


def _sqrt_coefficients(a0, D):
    if a0 <= 0.0:
        raise DomainError(f"sqrt of nonpositive value {a0}")
    return _power_coefficients(a0, 0.5, math.sqrt(a0), D)


def _sin_coefficients(a0, D, shift=0):
    """sin at a0, or cos with shift=1: derivatives cycle s, c, -s, -c."""
    s, c = math.sin(a0), math.cos(a0)
    cycle = (s, c, -s, -c)
    return [cycle[(k + shift) % 4] / math.factorial(k) for k in range(D + 1)]


def _tan_coefficients(a0, D):
    # tan' = 1 + tan^2
    t = [math.tan(a0)]
    for k in range(D):
        t.append(((k == 0) + sum(t[j] * t[k - j] for j in range(k + 1)))
                 / (k + 1))
    return t


def _atan_coefficients(a0, D):
    # atan' = 1/w with w = 1 + (a0 + h)^2 = w0 + 2 a0 h + h^2
    w0 = 1.0 + a0 * a0
    b = [0.0, 0.0]  # b_(k-2), b_(k-1), then the series of 1/w
    for k in range(D):
        b.append(((k == 0) - 2.0 * a0 * b[-1] - b[-2]) / w0)
    return [math.atan(a0)] + [b[k + 1] / k for k in range(1, D + 1)]


def _elementary(name, coefficients):
    def fn(x):
        if isinstance(x, Series):
            return x._compose(coefficients(x.value, x.space.degree))
        return coefficients(float(x), 0)[0]
    fn.__name__ = fn.__qualname__ = name
    return fn


exp = _elementary("exp", _exp_coefficients)
log = _elementary("log", _log_coefficients)
sqrt = _elementary("sqrt", _sqrt_coefficients)
sin = _elementary("sin", _sin_coefficients)
cos = _elementary("cos", lambda a0, D: _sin_coefficients(a0, D, shift=1))
tan = _elementary("tan", _tan_coefficients)
atan = _elementary("atan", _atan_coefficients)

UNARY_FUNCTIONS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "tan": tan,
                   "sqrt": sqrt, "atan": atan, "neg": operator.neg}


def power(a, b):
    """General power a**b with domain checks on the plain-float path."""
    if _plain(a) and _plain(b):
        a, b = float(a), float(b)
        if b.is_integer():
            if a == 0.0 and b < 0:
                raise DomainError("negative power of zero")
        elif a <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        try:
            return math.pow(a, b)
        except OverflowError:
            raise DomainError(f"{a}^{b} overflows") from None
    if _plain(a):
        # scalar base: a**b = exp(b*log(a))
        if float(a) <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        return exp(b * math.log(float(a)))
    return a ** b


def _div(a, b):
    if _plain(a) and _plain(b):
        if float(b) == 0.0:
            raise DomainError("division by zero")
        return float(a) / float(b)
    return a / b


# Reads


def value_of(x):
    """The float value of a series or a plain number."""
    return x.value if isinstance(x, Series) else float(x)


def second_order(parts, count):
    """(value, gradient, Hessian) from the coefficients of a cap-2 group.

    `parts` lists the coefficients of the group's monomials in order: 1,
    each variable, then each product of two (i <= k).  Entries may be
    floats or series; the Hessian is a nested list.
    """
    grad = list(parts[1:count + 1])
    hess = [[None] * count for _ in range(count)]
    pos = count + 1
    for i in range(count):
        for k in range(i, count):
            c = parts[pos]
            pos += 1
            hess[i][k] = hess[k][i] = 2.0 * c if i == k else c
    return parts[0], grad, hess
