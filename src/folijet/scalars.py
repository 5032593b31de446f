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
  gradient, for the spray Jacobian, kept to first order jointly in the
  lower fiber coordinates (`Space`'s `linear`), whose Hessian rows the
  spray does not read;
* ``((q, 2),) * r`` -- the Legendre chain, one group per stage.

A product is one gather-multiply-``bincount`` over index tables cached per
space.  An elementary function f is composed as
``f(a0 + h) = sum_k f_k(a0) h^k`` by Horner, where ``f_k`` are its
univariate Taylor coefficients at the value a0 (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Plain floats stay
plain floats.  Series are treated as immutable, every operation is pure,
and a non-finite coefficient anywhere raises DomainError.

Batches.  A series may carry a leading batch axis, ``coeffs`` of shape
(B, size), and a batch of plain floats is a 1-D float ndarray; every
operation acts on each sample as it would on that sample alone (vector
forward mode, Griewank & Walther ch. 3).  The product of a batch is
entry-major: it gathers whole rows of ``coeffs.T``, one per table entry
with every sample in it, and sums them in one ``bincount`` over the keys
``k * B + s``.  Each output coefficient is summed in table order, as for
one sample, so the product is bit-identical to the product of each sample.
The coefficients of a product or a composed function are the transpose of
a C-contiguous (size, B) array.  Other operations do not keep that layout
(a series built from an array is C-ordered, (B, size)), and the product
reads any layout.  Elementary functions of a batch go through numpy
ufuncs, which may differ from ``math`` in the last bit.  A domain check is
one reduction per batch; only when it fails is the first failing sample
looked for, and the DomainError names it.  Where samples part ways (a
Newton solve, a search, per-sample exponents) every step still runs over
the whole batch and `where` keeps each sample's own result; nothing runs
on a sub-batch.  Unbatched values stay the batch-size-1 case, and
`stack_samples` keeps one sample unbatched because that is faster: a warm
one-sample ``certify`` of the generated shear2 atlas at order 2 took
20-32 ms unbatched against 35-52 ms with the batch axis kept, for the same
report (6 alternating process pairs on one core, median of 15 calls each).
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["Space", "Series", "space", "second_order", "value_of",
           "exp", "log", "sin", "cos", "tan", "sqrt", "atan",
           "power", "UNARY_FUNCTIONS", "raise_where", "prefixed", "batch_of",
           "broadcast", "where", "columns", "stack_samples"]


def raise_where(bad, error, message, *values):
    """Raise ``error(message.format(*values))`` where `bad` holds.

    `bad` is a flag or a batch of flags; for a batch the error reports the
    first sample where it holds, with that sample's entries of any batched
    `values`, and names the sample.
    """
    if type(bad) is np.ndarray and bad.ndim:
        if bad.any():
            s = int(bad.argmax())
            raise sample_error(error, message.format(*(
                _shown(v[s] if type(v) is np.ndarray and v.ndim else v)
                for v in values)), s)
    elif bad:
        raise error(message.format(*map(_shown, values)))


def _shown(value):
    """An array entry of an error message as a list."""
    return value.tolist() if type(value) is np.ndarray else value


def sample_error(error, detail, s):
    """``error(detail)`` for sample s of a batch, naming the sample."""
    out = error(f"{detail} (sample {s})")
    out.detail, out.sample = detail, s
    return out


def prefixed(err, prefix):
    """`err` with `prefix` before its message, naming the same sample."""
    if hasattr(err, "sample"):
        return sample_error(type(err), prefix + err.detail, err.sample)
    return type(err)(prefix + str(err))


def _group_monomials(count, cap):
    """Exponent rows of total degree <= cap in graded order: 1, each
    variable, then each product of two variables (i <= k), and so on."""
    rows = [np.bincount(np.asarray(combo, dtype=np.intp), minlength=count)
            for degree in range(cap + 1)
            for combo in combinations_with_replacement(range(count), degree)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), count)


def _group_table(exponents, cap):
    """(i, j, k) with monomial i times monomial j equal to monomial k.

    The pairs are those whose degrees sum to at most cap.  A product of
    such a pair has no exponent above cap, so keys in radix cap + 1 add
    without carries: monomial k's key is the sum of i's and j's.  Nothing
    of size pairs x variables is built.
    """
    degree = exponents.sum(axis=1)
    i, j = np.nonzero(degree[:, None] <= cap - degree[None, :])
    keys = exponents @ ((cap + 1) ** np.arange(exponents.shape[1],
                                               dtype=np.int64))
    order = np.argsort(keys)
    k = order[np.searchsorted(keys, keys[i] + keys[j], sorter=order)]
    return i, j, k


class Space:
    """The monomials of a tuple of variable groups ``(count, cap)``.

    ``exponents[m]`` holds monomial m's powers of every variable, numbered
    across the groups in order.  Monomial 0 is the constant, and the first
    group varies slowest, so a coefficient array reshapes to ``shape``,
    one axis per group.

    The variables `linear` are kept to first order jointly: a monomial of
    degree two or more in them is truncated like one past a cap.  Its
    coefficient stays in the array, but no product entry lands on it, so
    products leave it zero, and it feeds no other, since a kept monomial
    has only kept divisors.  The table keeps its other entries in their
    order, so every kept coefficient of a product is summed exactly as
    without `linear`.
    """

    def __init__(self, groups, linear=()):
        self.groups, self.linear = groups, linear
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
        if linear:
            keep = (exponents[:, list(linear)].sum(axis=1) <= 1)[k]
            i, j, k = i[keep], j[keep], k[keep]
        self.table = (i, j, k)
        self._product_keys = {}  # batch -> keys, at most KEY_CACHE of them
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
        if self.linear:
            return f"Space({self.groups!r}, linear={self.linear!r})"
        return f"Space({self.groups!r})"

    def rest(self, group):
        """The space of the other groups, without `linear`: its filter
        drops table entries by their output monomial only, so each kept
        coefficient sums the same entries in either space."""
        return space(self.groups[:group] + self.groups[group + 1:])

    def product_keys(self, batch):
        """The bincount keys of an entry-major product of `batch` samples:
        ``k * batch + s`` for table entry k of sample s, row by row of the
        table.  The last KEY_CACHE batch sizes keep theirs: a product of
        more samples than a chunk holds runs full chunks and a remainder,
        two sizes."""
        keys = self._product_keys.get(batch)
        if keys is None:
            if len(self._product_keys) >= KEY_CACHE:
                del self._product_keys[next(iter(self._product_keys))]
            keys = self._product_keys[batch] = (
                self.table[2][:, None] * batch + np.arange(batch)).ravel()
        return keys

    def seed(self, value, *variables):
        """``value`` plus each listed variable; value is a float or series,
        or a batch of either."""
        if isinstance(value, Series):
            coeffs = value._coerce(self).copy()
        else:
            coeffs = np.zeros((len(value), self.size) if type(value) is
                              np.ndarray else self.size)
            coeffs.T[0] = value
        for v in variables:
            coeffs.T[self.variables[v]] += 1.0
        return _series(self, coeffs)


@lru_cache(maxsize=64)
def space(groups, linear=()):
    """The shared Space of a tuple of groups ``(count, cap)``, kept to
    first order jointly in the variables `linear`, a non-empty increasing
    tuple when given."""
    return Space(tuple((int(count), int(cap)) for count, cap in groups),
                 tuple(map(int, linear)))


def _plain(x):
    return (type(x) is float or type(x) is int or type(x) is np.ndarray
            or isinstance(x, numbers.Real))


PRODUCT_CHUNK = 1 << 15
KEY_CACHE = 2


def _product(sp, a, bj):
    """The product kernel: the coefficients of a times b, entry-major.

    `a` holds a's coefficients one row per monomial, (size,) or (size, B),
    and `bj` b's gathered by the table's j, (len(table),) or
    (len(table), B); the result is (size,) or (size, B).  One
    gather-multiply-bincount over the space's table: a batch gathers whole
    rows ``a[i]`` and sums every sample's terms in one bincount over the
    keys ``k * B + s``.  Each output coefficient is still summed in table
    order, so each sample's product is bit-identical to its own.
    """
    i, _, k = sp.table
    if a.ndim == 1 == bj.ndim:
        return np.bincount(k, a[i] * bj, sp.size)
    batch = (a if a.ndim == 2 else bj).shape[1]
    # at most PRODUCT_CHUNK terms at a time bound the temporaries and keys
    step = max(1, PRODUCT_CHUNK // len(k))
    if a.ndim == 2 == bj.ndim and batch <= step:
        terms = a[i]
        terms *= bj
        return np.bincount(sp.product_keys(batch), terms.ravel(),
                           batch * sp.size).reshape(sp.size, batch)
    a = np.broadcast_to(a.reshape(sp.size, -1), (sp.size, batch))
    bj = np.broadcast_to(bj.reshape(len(k), -1), (len(k), batch))
    out = np.empty((sp.size, batch))
    for s in range(0, batch, step):
        out[:, s:s + step] = _product(sp, a[:, s:s + step], bj[:, s:s + step])
    return out


def _unchecked(sp, coeffs):
    """A series on coefficients known to be finite, taken as they are."""
    out = object.__new__(Series)
    out.space, out.coeffs = sp, coeffs
    return out


def _series(sp, coeffs):
    """A series on a trusted coefficient array; rejects non-finite entries
    (0 * x is NaN exactly when x is not finite)."""
    probe = coeffs.dot(sp.zeros)
    if math.isnan(probe if coeffs.ndim == 1 else probe.sum()):
        raise_where(np.isnan(probe), DomainError,
                    "non-finite series coefficient")
    return _unchecked(sp, coeffs)


class Series:
    """A truncated multivariate Taylor series: float coefficients over a space.

    ``coeffs[..., m]`` is the coefficient of monomial m, i.e. the partial
    derivative of that multi-index divided by its factorial; a leading axis,
    when there is one, runs over the samples of a batch.  The code writes
    ``coeffs.T[m]`` for that column: on one sample it is a plain index,
    which numpy runs several times faster than ``coeffs[..., m]``.
    """

    __slots__ = ("space", "coeffs")
    __array_ufunc__ = None  # numpy operands defer to the series

    def __init__(self, space, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape[-1:] != (space.size,) or coeffs.ndim > 2:
            raise ShapeError(
                f"{coeffs.shape} coefficients for {space.size} monomials")
        raise_where(~np.isfinite(coeffs).all(axis=-1), DomainError,
                    "non-finite series coefficient")
        self.space, self.coeffs = space, coeffs

    @property
    def value(self):
        """The constant coefficient: a float, or a batch of floats."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[:, 0]

    @property
    def batch(self):
        """The number of samples, or None for an unbatched series."""
        return len(self.coeffs) if self.coeffs.ndim == 2 else None

    def __repr__(self):
        return f"Series({self.space.groups!r}, {self.coeffs.tolist()!r})"

    def _coerce(self, other_space):
        if self.space is not other_space:
            raise ShapeError(
                f"spaces differ: {self.space.groups} vs {other_space.groups}")
        return self.coeffs

    def _new(self, coeffs):
        return _series(self.space, coeffs)

    def split(self, group):
        """The coefficient of each monomial of ``group``, in its order, as a
        series over the space of the other groups."""
        sp = self.space
        rest = sp.rest(group)
        lead = self.coeffs.shape[:-1]
        block = self.coeffs.reshape(lead + (math.prod(sp.shape[:group]),
                                            sp.shape[group], -1))
        n = block.ndim  # the group's axis first
        parts = block.transpose(n - 2, *range(n - 2), n - 1).reshape(
            (-1,) + lead + (rest.size,))
        return [_unchecked(rest, part) for part in parts]

    def within(self, sp, group):
        """This series, over `sp` without ``group``, as a series over `sp`
        of degree zero in ``group``: `split` inverted on its parts."""
        rest = sp.rest(group)
        if rest is not self.space and (rest.groups, rest.linear) != (
                self.space.groups, self.space.linear):
            raise ShapeError(f"{self.space} not in {sp}")
        lead = self.coeffs.shape[:-1]
        pre = math.prod(sp.shape[:group])
        out = np.zeros(lead + (pre, sp.shape[group], self.space.size // pre))
        out[..., 0, :] = self.coeffs.reshape(lead + (pre, -1))
        return _unchecked(sp, out.reshape(lead + (-1,)))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if type(other) is Series:
            return self._new(self.coeffs + other._coerce(self.space))
        if not _plain(other):
            return NotImplemented
        coeffs = self.coeffs
        if type(other) is np.ndarray and coeffs.ndim == 1:
            coeffs = np.tile(coeffs, (len(other), 1))
        else:
            coeffs = coeffs.copy()
        coeffs.T[0] += other
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
            b = other._coerce(sp).T
            return _series(sp, _product(sp, self.coeffs.T,
                                        b[sp.table[1]]).T)
        if not _plain(other):
            return NotImplemented
        return self._new(self.coeffs * (other[:, None] if type(other) is
                                        np.ndarray else other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Series:
            return self * other._reciprocal()
        if not _plain(other):
            return NotImplemented
        raise_where(other == 0.0, DomainError, "division of a series by zero")
        return self._new(self.coeffs / (other[:, None] if type(other) is
                                        np.ndarray else other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other if _plain(other) else NotImplemented

    def _reciprocal(self):
        a0 = self.value
        raise_where(a0 == 0.0, DomainError,
                    "division by series with zero value")
        return self._compose(_power_coefficients(a0, -1.0, 1.0 / a0,
                                                 self.space.degree))

    def __pow__(self, e):
        if isinstance(e, Series):
            return exp(log(self) * e)
        if not _plain(e):
            return NotImplemented
        if type(e) is np.ndarray:
            whole = np.isfinite(e) & (e == np.floor(e))
            if whole.any() or self.batch is None:
                # the non-integer exponents in one pass, each integer one in
                # its own, other samples raising 1 (`where` batches a base);
                # all passes run, so the error is the batch's first failure
                out, errors = 0.0, []
                for v in [None, *np.unique(e[whole])]:
                    mask = ~whole if v is None else e == v
                    try:
                        out = where(mask, where(mask, self, 1.0) ** (
                            np.where(mask, e, 0.5) if v is None else float(v)),
                            out)
                    except DomainError as err:
                        errors.append(err)
                if errors:
                    raise min(errors, key=lambda err: err.sample)
                return out
        elif (e := float(e)).is_integer():
            try:
                return self._whole_power(e)
            except DomainError as err:
                if self.batch is None:
                    raise
                # the batch stops at the first product that fails in any
                # sample; name the first sample that fails alone
                for s in range(err.sample):
                    try:
                        _unchecked(self.space,
                                   self.coeffs[s:s + 1])._whole_power(e)
                    except DomainError as alone:
                        raise sample_error(DomainError, alone.detail,
                                           s) from None
                raise
        # a non-integer float, or a batch of them
        a0, degree = self.value, self.space.degree
        if type(a0) is not np.ndarray:
            return self._compose(_power_coefficients(a0, e, power(a0, e),
                                                     degree))
        with np.errstate(all="ignore"):
            f = _power_coefficients(a0, e, np.power(a0, e), degree)
        ok = (a0 > 0.0) & np.isfinite(f).all(axis=0)
        if not ok.all():
            # the first failing sample fails `power` as it would alone, or
            # else `_compose`
            only = np.arange(len(a0)) == int(ok.argmin())
            power(np.where(only, a0, 1.0), np.where(only, e, 0.5))
        return self._compose(f)

    def _whole_power(self, e):
        """self ** e for an integer-valued float e, by repeated squaring."""
        n = abs(int(e))
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            return broadcast(self.space.seed(1.0), self.batch)
        return result._reciprocal() if e < 0 else result

    def __rpow__(self, other):
        return power(other, self) if _plain(other) else NotImplemented

    # -- composition with univariate functions -------------------------------

    def _compose(self, f):
        """sum_k f[k] (self - value)^k by Horner."""
        if type(f[0]) is np.ndarray:
            raise_where(~np.isfinite(f).all(axis=0), DomainError,
                        "non-finite derivative of an elementary function")
        elif not all(map(math.isfinite, f)):
            raise DomainError("non-finite derivative of an elementary function")
        sp = self.space
        h = self.coeffs.T.copy()  # entry-major, as `_product` takes it
        h[0] = 0.0
        hj = h[sp.table[1]]
        out = np.zeros(h.shape)
        out[0] = f[-1]
        for fk in f[-2::-1]:
            out = _product(sp, out, hj)
            out[0] += fk
        return self._new(out.T)


# Univariate Taylor coefficients f_0..f_D of the elementary functions at a0,
# a float or a batch of floats


def _ufunc(fn, ufunc, a0):
    """fn at a float, or the numpy ufunc over a batch of floats."""
    if type(a0) is np.ndarray:
        with np.errstate(all="ignore"):
            return ufunc(a0)
    return fn(a0)


def _exp_coefficients(a0, D):
    if type(a0) is np.ndarray:
        f0 = _ufunc(None, np.exp, a0)
        raise_where(np.isinf(f0) & np.isfinite(a0), DomainError,
                    "exp({}) overflows", a0)
    else:
        try:
            f0 = math.exp(a0)
        except OverflowError:
            raise DomainError(f"exp({a0}) overflows") from None
    return [f0 / math.factorial(k) for k in range(D + 1)]


def _log_coefficients(a0, D):
    raise_where(a0 <= 0.0, DomainError, "log of nonpositive value {}", a0)
    try:
        return [_ufunc(math.log, np.log, a0)] + [-(-1.0 / a0) ** k / k
                                                 for k in range(1, D + 1)]
    except OverflowError:  # a float power; a batch overflows to inf
        raise DomainError("non-finite derivative of an elementary function") \
            from None


def _power_coefficients(a0, e, f0, D):
    """(a0 + h)^e: f_k = f_(k-1) (e - k + 1) / (k a0)."""
    f = [f0]
    for k in range(1, D + 1):
        f.append(f[-1] * (e - k + 1) / (k * a0))
    return f


def _sqrt_coefficients(a0, D):
    raise_where(a0 <= 0.0, DomainError, "sqrt of nonpositive value {}", a0)
    return _power_coefficients(a0, 0.5, _ufunc(math.sqrt, np.sqrt, a0), D)


def _sin_coefficients(a0, D, shift=0):
    """sin at a0, or cos with shift=1: derivatives cycle s, c, -s, -c."""
    raise_where(np.isinf(a0), DomainError, "sin or cos of {}", a0)
    s, c = _ufunc(math.sin, np.sin, a0), _ufunc(math.cos, np.cos, a0)
    cycle = (s, c, -s, -c)
    return [cycle[(k + shift) % 4] / math.factorial(k) for k in range(D + 1)]


def _tan_coefficients(a0, D):
    # tan' = 1 + tan^2
    raise_where(np.isinf(a0), DomainError, "tan of {}", a0)
    t = [_ufunc(math.tan, np.tan, a0)]
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
    return [_ufunc(math.atan, np.arctan, a0)] + [b[k + 1] / k
                                                 for k in range(1, D + 1)]


def _elementary(name, coefficients):
    def fn(x):
        if isinstance(x, Series):
            return x._compose(coefficients(x.value, x.space.degree))
        return coefficients(x if type(x) is np.ndarray else float(x), 0)[0]
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
        if type(a) is np.ndarray or type(b) is np.ndarray:
            return _power_batch(a, b)
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
        a = a if type(a) is np.ndarray else float(a)
        raise_where(a <= 0.0, DomainError,
                    "non-integer power of nonpositive base")
        return exp(b * _ufunc(math.log, np.log, a))
    return a ** b


def _power_batch(a, b):
    """`power` over a batch of floats, sample by sample; to a plain exponent
    the samples are searched only if the power is not finite, or if a
    non-integer exponent meets a base <= 0."""
    if type(b) is not np.ndarray:
        b = float(b)
        with np.errstate(all="ignore"):
            out = np.power(a, b)
        if math.isfinite(out.sum()) and (b.is_integer() or a.min() > 0.0):
            return out
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    with np.errstate(all="ignore"):
        integer = np.isfinite(b) & (b == np.floor(b))
        out = np.power(a, b)
    zero = integer & (a == 0.0) & (b < 0)
    nonpositive = ~integer & (a <= 0.0)
    over = np.isinf(out) & np.isfinite(a) & np.isfinite(b) & ~zero
    bad = zero | nonpositive | over
    if bad.any():
        s = int(bad.argmax())
        message = ("negative power of zero" if zero[s] else
                   "non-integer power of nonpositive base" if nonpositive[s]
                   else f"{a[s]}^{b[s]} overflows")
        raise sample_error(DomainError, message, s)
    return out


def _div(a, b):
    if _plain(a) and _plain(b):
        if type(a) is np.ndarray or type(b) is np.ndarray:
            raise_where(np.equal(b, 0.0), DomainError, "division by zero")
            with np.errstate(over="ignore"):
                return np.true_divide(a, b)
        if float(b) == 0.0:
            raise DomainError("division by zero")
        return float(a) / float(b)
    return a / b


# Batches


def columns(values):
    """The entries along the last axis of an array: floats, or, when the
    array has a leading batch axis, one batch of floats per entry."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return values.tolist()
    return list(np.ascontiguousarray(values.T))


def stack_samples(rows):
    """Per-sample arrays stacked on a leading batch axis; one sample stays
    unbatched, the batch-size-1 case."""
    return np.asarray(rows[0] if len(rows) == 1 else rows, dtype=float)


def batch_of(x):
    """The number of samples of a batched series or floats, else None."""
    if type(x) is Series:
        return x.batch
    return len(x) if type(x) is np.ndarray and x.ndim else None


def broadcast(x, batch):
    """x as a batch of `batch` samples; a batch, or any x for batch None,
    comes back as it is."""
    if batch is None:
        return x
    if type(x) is Series:
        if x.coeffs.ndim == 2:
            return x
        return _series(x.space, np.tile(x.coeffs, (batch, 1)))
    return x if type(x) is np.ndarray else np.full(batch, float(x))


def where(mask, x, y):
    """Sample by sample, x where the batch of flags `mask` holds, else y."""
    if type(x) is Series or type(y) is Series:
        sp = (x if type(x) is Series else y).space
        x, y = (v.coeffs if type(v) is Series else sp.seed(v).coeffs
                for v in (x, y))
        return _series(sp, np.where(mask[:, None], x, y))
    return np.where(mask, x, y)


# Reads


def value_of(x):
    """The float value of a series or a plain number; for a batch, the
    batch of values."""
    if isinstance(x, Series):
        return x.value
    return x if type(x) is np.ndarray else float(x)


def second_order(parts, count):
    """(value, gradient, Hessian) from the coefficients of a cap-2 group.

    `parts` lists the coefficients of the group's monomials in order: 1,
    each variable, then each product of two (i <= k).  Entries may be
    floats or series, or batches of either; the Hessian is a nested list.
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
