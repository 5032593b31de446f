"""Scalar arithmetic kernels: truncated Taylor series and forward-mode duals.

Three scalar kinds live here:

* ``TaylorScalar`` -- a truncated univariate Taylor polynomial; carries jets
  of curves through maps by plain function evaluation.
* ``DualScalar`` -- value plus gradient with respect to a declared variable
  set (first-order forward mode).
* ``DualQuadScalar`` -- value, gradient and symmetric Hessian (forward over
  forward).

Coefficient and derivative slots may themselves hold scalar objects, e.g. a
TaylorScalar whose coefficients are DualScalars.  That nesting is what powers
Jacobians of jet transport and derivatives of fields that are themselves
defined through derivatives.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, IndexOutOfRange, OrderMismatch, VarCountMismatch

__all__ = [
    "TaylorScalar",
    "DualScalar",
    "DualQuadScalar",
    "seed_gradient",
    "value_of",
    "constant_like",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "sqrt",
    "atan",
    "power",
    "UNARY_FUNCTIONS",
]


def value_of(x):
    """Extract the underlying float of a (possibly nested) scalar."""
    while True:
        if isinstance(x, TaylorScalar):
            x = x.coeffs[0]
        elif isinstance(x, (DualScalar, DualQuadScalar)):
            x = x.value
        else:
            return float(x)


def _is_plain(x):
    return isinstance(x, numbers.Real)


def _check_finite(values):
    for v in values:
        if isinstance(v, numbers.Real) and not math.isfinite(v):
            raise DomainError(f"non-finite entry {v!r}")


# ---------------------------------------------------------------------------
# Truncated Taylor series
# ---------------------------------------------------------------------------


class TaylorScalar:
    """Truncated Taylor series sum_j coeffs[j] * t**j.

    coeffs[j] is the j-th Taylor coefficient, i.e. (1/j!) d^j/dt^j at t=0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise OrderMismatch("a TaylorScalar needs at least one coefficient")
        _check_finite(coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorScalar is immutable")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order):
        return cls((value,) + (0.0,) * order)

    @classmethod
    def variable(cls, value, order):
        """The series value + t (the curve parameter itself)."""
        if order < 1:
            return cls.constant(value, order)
        return cls((value, 1.0) + (0.0,) * (order - 1))

    def __repr__(self):
        return f"TaylorScalar({list(self.coeffs)!r})"

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TaylorScalar):
            if other.order != self.order:
                raise OrderMismatch(
                    f"orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, np.ndarray):
            return None
        return TaylorScalar.constant(other, self.order)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TaylorScalar(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TaylorScalar(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return TaylorScalar(-a for a in self.coeffs)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            s = a[0] * b[k]
            for j in range(1, k + 1):
                s = s + a[j] * b[k - j]
            out.append(s)
        return TaylorScalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        b = other.coeffs
        if value_of(b[0]) == 0.0:
            raise DomainError("division by series with zero constant term")
        a = self.coeffs
        q = []
        for k in range(self.order + 1):
            s = a[k]
            for j in range(k):
                s = s - q[j] * b[k - j]
            q.append(s / b[0])
        return TaylorScalar(q)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e):
        if isinstance(e, np.ndarray):
            return NotImplemented
        if _is_plain(e) and float(e).is_integer():
            n = int(e)
            if n < 0:
                return TaylorScalar.constant(1.0, self.order) / self.__pow__(-n)
            result = TaylorScalar.constant(1.0, self.order)
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        # non-integer exponent: real-analytic only for positive constant term
        if _is_plain(e):
            if value_of(self.coeffs[0]) <= 0.0:
                raise DomainError(
                    "non-integer power of series with nonpositive constant term"
                )
            return exp(log(self) * float(e))
        return exp(log(self) * e)

    def __rpow__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other ** self

    # -- elementary functions (standard truncated-series recurrences) ------

    def _exp(self):
        a = self.coeffs
        out = [exp(a[0])]
        for k in range(1, self.order + 1):
            s = 1.0 * a[1] * out[k - 1]
            for j in range(2, k + 1):
                s = s + j * a[j] * out[k - j]
            out.append(s / k)
        return TaylorScalar(out)

    def _log(self):
        a = self.coeffs
        if value_of(a[0]) <= 0.0:
            raise DomainError("log of series with nonpositive constant term")
        out = [log(a[0])]
        for k in range(1, self.order + 1):
            s = k * a[k]
            for j in range(1, k):
                s = s - j * out[j] * a[k - j]
            out.append(s / (k * a[0]))
        return TaylorScalar(out)

    def _sqrt(self):
        a = self.coeffs
        if value_of(a[0]) <= 0.0:
            raise DomainError("sqrt of series with nonpositive constant term")
        out = [sqrt(a[0])]
        for k in range(1, self.order + 1):
            s = a[k]
            for j in range(1, k):
                s = s - out[j] * out[k - j]
            out.append(s / (2.0 * out[0]))
        return TaylorScalar(out)

    def _sincos(self):
        a = self.coeffs
        s = [sin(a[0])]
        c = [cos(a[0])]
        for k in range(1, self.order + 1):
            ts = 1.0 * a[1] * c[k - 1]
            tc = 1.0 * a[1] * s[k - 1]
            for j in range(2, k + 1):
                ts = ts + j * a[j] * c[k - j]
                tc = tc + j * a[j] * s[k - j]
            s.append(ts / k)
            c.append(-tc / k)
        return TaylorScalar(s), TaylorScalar(c)

    def _sin(self):
        return self._sincos()[0]

    def _cos(self):
        return self._sincos()[1]

    def _tan(self):
        s, c = self._sincos()
        return s / c

    def _atan(self):
        a = self.coeffs
        b = (self * self + 1.0).coeffs  # 1 + a^2
        out = [atan(a[0])]
        for k in range(1, self.order + 1):
            s = k * a[k]
            for j in range(1, k):
                s = s - j * out[j] * b[k - j]
            out.append(s / (k * b[0]))
        return TaylorScalar(out)


# ---------------------------------------------------------------------------
# Forward-mode duals
# ---------------------------------------------------------------------------


def _asarray(values):
    arr = np.asarray(values)
    if arr.dtype.kind not in ("f", "O"):
        arr = arr.astype(float)
    return arr


class DualScalar:
    """Value plus gradient with respect to nvars variables."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "grad", _asarray(grad))
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise DomainError(f"non-finite dual value {value!r}")

    def __setattr__(self, name, value):
        raise AttributeError("DualScalar is immutable")

    @classmethod
    def _make(cls, value, grad):
        # trusted internal path: grad is already a well-formed array
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"non-finite dual value {value!r}")
        out = object.__new__(cls)
        object.__setattr__(out, "value", value)
        object.__setattr__(out, "grad", grad)
        return out

    @property
    def nvars(self):
        return self.grad.shape[0]

    @classmethod
    def constant(cls, value, nvars):
        return cls(value, np.zeros(nvars))

    def __repr__(self):
        return f"DualScalar({self.value!r}, grad={self.grad!r})"

    def _coerce(self, other):
        if isinstance(other, DualScalar):
            if other.nvars != self.nvars:
                raise VarCountMismatch(
                    f"variable counts differ: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, np.ndarray):
            return None
        return DualScalar.constant(other, self.nvars)

    def __add__(self, other):
        if _is_plain(other):
            return DualScalar._make(self.value + other, self.grad)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar._make(self.value + other.value,
                                self.grad + other.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if _is_plain(other):
            return DualScalar._make(self.value - other, self.grad)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar._make(self.value - other.value,
                                self.grad - other.grad)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return DualScalar._make(-self.value, -self.grad)

    def __mul__(self, other):
        if _is_plain(other):
            return DualScalar._make(self.value * other, self.grad * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar._make(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._recip()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._recip()

    def _recip(self):
        if value_of(self.value) == 0.0:
            raise DomainError("division by dual with zero value")
        inv = 1.0 / self.value if _is_plain(self.value) else _recip_scalar(self.value)
        return DualScalar._make(inv, -(inv * inv) * self.grad)

    def _apply(self, f0, d1):
        return DualScalar._make(f0, d1 * self.grad)

    def __pow__(self, e):
        return _pow_dual(self, e)

    def __rpow__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other ** self

    def _exp(self):
        f = exp(self.value)
        return self._apply(f, f)

    def _log(self):
        if value_of(self.value) <= 0.0:
            raise DomainError("log of nonpositive dual value")
        return self._apply(log(self.value), _recip_scalar(self.value))

    def _sqrt(self):
        if value_of(self.value) <= 0.0:
            raise DomainError("sqrt of nonpositive dual value")
        s = sqrt(self.value)
        return self._apply(s, 0.5 * _recip_scalar(s))

    def _sin(self):
        return self._apply(sin(self.value), cos(self.value))

    def _cos(self):
        return self._apply(cos(self.value), -sin(self.value))

    def _tan(self):
        t = tan(self.value)
        return self._apply(t, 1.0 + t * t)

    def _atan(self):
        w = 1.0 + self.value * self.value
        return self._apply(atan(self.value), _recip_scalar(w))


class DualQuadScalar:
    """Value, gradient and symmetric Hessian with respect to nvars variables."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        grad = _asarray(grad)
        hess = _asarray(hess)
        if hess.shape != (grad.shape[0], grad.shape[0]):
            raise VarCountMismatch(
                f"hessian shape {hess.shape} does not match {grad.shape[0]} vars"
            )
        # stored symmetric: (H + H.T)/2 is exactly symmetric in floats
        hess = (hess + hess.T) / 2.0
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise DomainError(f"non-finite dual value {value!r}")

    def __setattr__(self, name, value):
        raise AttributeError("DualQuadScalar is immutable")

    @classmethod
    def _make(cls, value, grad, hess):
        # trusted internal path: arrays well-formed, hess already symmetric
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"non-finite dual value {value!r}")
        out = object.__new__(cls)
        object.__setattr__(out, "value", value)
        object.__setattr__(out, "grad", grad)
        object.__setattr__(out, "hess", hess)
        return out

    @property
    def nvars(self):
        return self.grad.shape[0]

    @classmethod
    def constant(cls, value, nvars):
        return cls(value, np.zeros(nvars), np.zeros((nvars, nvars)))

    def __repr__(self):
        return f"DualQuadScalar({self.value!r}, grad={self.grad!r})"

    def _coerce(self, other):
        if isinstance(other, DualQuadScalar):
            if other.nvars != self.nvars:
                raise VarCountMismatch(
                    f"variable counts differ: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, np.ndarray):
            return None
        return DualQuadScalar.constant(other, self.nvars)

    def __add__(self, other):
        if _is_plain(other):
            return DualQuadScalar._make(self.value + other, self.grad,
                                        self.hess)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualQuadScalar._make(
            self.value + other.value,
            self.grad + other.grad,
            self.hess + other.hess,
        )

    __radd__ = __add__

    def __sub__(self, other):
        if _is_plain(other):
            return DualQuadScalar._make(self.value - other, self.grad,
                                        self.hess)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DualQuadScalar._make(
            self.value - other.value,
            self.grad - other.grad,
            self.hess - other.hess,
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return DualQuadScalar._make(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if _is_plain(other):
            return DualQuadScalar._make(self.value * other, self.grad * other,
                                        self.hess * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cross = self.grad[:, None] * other.grad[None, :]
        return DualQuadScalar._make(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess
            + cross + cross.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._recip()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._recip()

    def _recip(self):
        if value_of(self.value) == 0.0:
            raise DomainError("division by dual with zero value")
        inv = _recip_scalar(self.value)
        return self._apply(inv, -(inv * inv), 2.0 * inv * inv * inv)

    def _apply(self, f0, d1, d2):
        outer = self.grad[:, None] * self.grad[None, :]
        return DualQuadScalar._make(f0, d1 * self.grad,
                                    d1 * self.hess + d2 * outer)

    def __pow__(self, e):
        return _pow_dual(self, e)

    def __rpow__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other ** self

    def _exp(self):
        f = exp(self.value)
        return self._apply(f, f, f)

    def _log(self):
        if value_of(self.value) <= 0.0:
            raise DomainError("log of nonpositive dual value")
        inv = _recip_scalar(self.value)
        return self._apply(log(self.value), inv, -(inv * inv))

    def _sqrt(self):
        if value_of(self.value) <= 0.0:
            raise DomainError("sqrt of nonpositive dual value")
        s = sqrt(self.value)
        inv_s = _recip_scalar(s)
        return self._apply(s, 0.5 * inv_s, -0.25 * inv_s * inv_s * inv_s)

    def _sin(self):
        sv, cv = sin(self.value), cos(self.value)
        return self._apply(sv, cv, -sv)

    def _cos(self):
        sv, cv = sin(self.value), cos(self.value)
        return self._apply(cv, -sv, -cv)

    def _tan(self):
        t = tan(self.value)
        sec2 = 1.0 + t * t
        return self._apply(t, sec2, 2.0 * t * sec2)

    def _atan(self):
        w = 1.0 + self.value * self.value
        inv_w = _recip_scalar(w)
        return self._apply(
            atan(self.value), inv_w, -2.0 * self.value * inv_w * inv_w
        )


def _recip_scalar(x):
    if _is_plain(x):
        if x == 0.0:
            raise DomainError("division by zero")
        return 1.0 / float(x)
    return 1.0 / x


def _ipow_scalar(x, n):
    """x**n for integer n on any scalar kind."""
    if n == 0:
        return 1.0
    if n < 0:
        return _recip_scalar(_ipow_scalar(x, -n))
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _pow_dual(a, e):
    if isinstance(e, np.ndarray):
        return NotImplemented
    if _is_plain(e) and float(e).is_integer():
        n = int(e)
        v = a.value
        if n == 0:
            return type(a).constant(1.0, a.nvars)
        if value_of(v) == 0.0 and n < 0:
            raise DomainError("negative power of zero")
        f0 = _ipow_scalar(v, n)
        d1 = float(n) * _ipow_scalar(v, n - 1)
        if isinstance(a, DualScalar):
            return a._apply(f0, d1)
        d2 = float(n * (n - 1)) * _ipow_scalar(v, n - 2) if n not in (0, 1) else 0.0
        return a._apply(f0, d1, d2)
    if _is_plain(e):
        if value_of(a.value) <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        e = float(e)
        v = a.value
        f0 = exp(log(v) * e) if not _is_plain(v) else math.pow(v, e)
        d1 = e * f0 * _recip_scalar(v)
        if isinstance(a, DualScalar):
            return a._apply(f0, d1)
        d2 = e * (e - 1.0) * f0 * _recip_scalar(v * v)
        return a._apply(f0, d1, d2)
    if isinstance(e, type(a)):
        return exp(e * log(a))
    return NotImplemented


# ---------------------------------------------------------------------------
# Generic elementary functions (dispatch on scalar kind)
# ---------------------------------------------------------------------------


def _float_checked(fn, x, name, require_positive=False):
    x = float(x)
    if require_positive and x <= 0.0:
        raise DomainError(f"{name} of nonpositive value {x}")
    try:
        return fn(x)
    except ValueError as err:
        raise DomainError(f"{name}({x}): {err}") from err


def exp(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._exp()
    return math.exp(float(x))


def log(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._log()
    return _float_checked(math.log, x, "log", require_positive=True)


def sqrt(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._sqrt()
    return _float_checked(math.sqrt, x, "sqrt", require_positive=True)


def sin(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._sin()
    return math.sin(float(x))


def cos(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._cos()
    return math.cos(float(x))


def tan(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._tan()
    return math.tan(float(x))


def atan(x):
    if isinstance(x, (TaylorScalar, DualScalar, DualQuadScalar)):
        return x._atan()
    return math.atan(float(x))


def _neg(x):
    return -x


UNARY_FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sqrt": sqrt,
    "atan": atan,
    "neg": _neg,
}


def power(a, b):
    """General power a**b with domain checks on the plain-float path."""
    if _is_plain(a) and _is_plain(b):
        a, b = float(a), float(b)
        if b.is_integer():
            if a == 0.0 and b < 0:
                raise DomainError("negative power of zero")
            return math.pow(a, b)
        if a <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        return math.pow(a, b)
    if _is_plain(a):
        # scalar exponent: a**b = exp(b*log(a))
        if float(a) <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        return exp(b * math.log(float(a)))
    return a ** b


def _div(a, b):
    if _is_plain(a) and _is_plain(b):
        if float(b) == 0.0:
            raise DomainError("division by zero")
        return float(a) / float(b)
    return a / b


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def seed_gradient(index, value, nvars):
    """First-order dual seed for variable `index`."""
    if not 0 <= index < nvars:
        raise IndexOutOfRange(f"index {index} not in [0, {nvars})")
    grad = np.zeros(nvars)
    grad[index] = 1.0
    return DualScalar(value, grad)


def constant_like(template, value):
    """A constant of the same scalar kind/shape as `template`."""
    if isinstance(template, TaylorScalar):
        return TaylorScalar.constant(value, template.order)
    if isinstance(template, DualScalar):
        return DualScalar.constant(value, template.nvars)
    if isinstance(template, DualQuadScalar):
        return DualQuadScalar.constant(value, template.nvars)
    return float(value)
