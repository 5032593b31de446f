"""Closed-form lagrangian lifts via symbolic algebra.

The recursive lift L^(k) = L^(k-1) + g(y^(k) - S^(k-1), y^(k) - S^(k-1))
stays in closed form whenever the metric components do, so the recursion
is run once in sympy and the results are converted back into expression
programs.  Downstream numerics then differentiate one closed form instead
of one recursion step at a time.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import sympy as sp

from . import expr as exprmod
from .errors import InvariantViolation

__all__ = [
    "to_sympy",
    "from_sympy",
    "lift_stages",
    "prolongation_coefficients",
]

_FUNCTIONS = {
    "exp": sp.exp,
    "log": sp.log,
    "sin": sp.sin,
    "cos": sp.cos,
    "tan": sp.tan,
    "sqrt": sp.sqrt,
    "atan": sp.atan,
}

_INVERSE_FUNCTIONS = {
    sp.exp: "exp",
    sp.log: "log",
    sp.sin: "sin",
    sp.cos: "cos",
    sp.tan: "tan",
    sp.atan: "atan",
}


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _children(node):
    if isinstance(node, exprmod.Binary):
        return (node.left, node.right)
    if isinstance(node, (exprmod.Unary, exprmod.Call)):
        return (node.arg,)
    return ()


def _convert(node, args):
    """One AST node as sympy, given its children already converted."""
    if isinstance(node, exprmod.Num):
        v = node.value
        return sp.Integer(int(v)) if float(v).is_integer() else sp.Float(v)
    if isinstance(node, exprmod.Const):
        return sp.pi if node.name == "pi" else sp.E
    if isinstance(node, exprmod.Var):
        return sp.Symbol(node.name, real=True)
    if isinstance(node, exprmod.Unary) or (
            isinstance(node, exprmod.Call) and node.fn == "neg"):
        return -args[0]
    if isinstance(node, exprmod.Call):
        return _FUNCTIONS[node.fn](args[0])
    if isinstance(node, exprmod.Binary):
        return _BINARY[node.op](*args)
    raise TypeError(f"unknown AST node {node!r}")


def to_sympy(program):
    """Convert an expression program into a sympy expression.

    The walk is an iterative post-order pass, so a long sum converts
    without recursion.
    """
    done = {}  # id(node) -> sympy expression
    stack = [program.ast]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done[id(node)] = _convert(node, [done[id(c)] for c in _children(node)])
    return done[id(program.ast)]


def from_sympy(expression):
    """Convert a sympy expression back into an expression program."""

    def fold(op, parts):
        node = parts[0]
        for part in parts[1:]:
            node = exprmod.Binary(op, node, part)
        return node

    def conv(e):
        if e is sp.pi:
            return exprmod.Const("pi")
        if e is sp.E:
            return exprmod.Const("e")
        if e.is_Symbol:
            name = str(e)
            if not exprmod.is_variable_name(name):
                raise InvariantViolation(f"symbol {name!r} is not a coordinate")
            return exprmod.Var(name)
        if e.is_Integer:
            return exprmod.Num(float(int(e)))
        if e.is_Rational:
            return exprmod.Binary("/", exprmod.Num(float(e.p)),
                                  exprmod.Num(float(e.q)))
        if e.is_Float:
            return exprmod.Num(float(e))
        if e.is_Add:
            return fold("+", [conv(a) for a in e.args])
        if e.is_Mul:
            return fold("*", [conv(a) for a in e.args])
        if e.is_Pow:
            base, ex = e.args
            if ex == sp.Rational(1, 2):
                return exprmod.Call("sqrt", conv(base))
            if ex == sp.Rational(-1, 2):
                return exprmod.Binary("/", exprmod.Num(1.0),
                                      exprmod.Call("sqrt", conv(base)))
            if ex.is_Integer and int(ex) < 0:
                denom = conv(base) if int(ex) == -1 else \
                    exprmod.Binary("^", conv(base), exprmod.Num(float(-int(ex))))
                return exprmod.Binary("/", exprmod.Num(1.0), denom)
            return exprmod.Binary("^", conv(base), conv(ex))
        if e.func in _INVERSE_FUNCTIONS:
            return exprmod.Call(_INVERSE_FUNCTIONS[e.func], conv(e.args[0]))
        raise InvariantViolation(f"cannot convert sympy node {e!r}")

    ast = conv(sp.sympify(expression))
    return exprmod.ExprProgram(ast, exprmod._print(ast))


def _row(k, q):
    """The symbols of the jet row y^(k), with y^(0) = x."""
    return [sp.Symbol(name, real=True)
            for name in exprmod.coordinate_names(q, k)[k * q:]]


def _gamma(f, k, q):
    """The derivation Gamma at order k, symbolically."""
    out = sp.Integer(0)
    for j in range(1, k + 1):
        for y, lower in zip(_row(j, q), _row(j - 1, q)):
            out += j * y * sp.diff(f, lower)
    return out


def _stage_spray(L, k, q, ginv):
    """Semi-spray components of an order-k lagrangian in the lift recursion.

    Every stage of the recursion has vertical Hessian exactly 2g (each step
    adds g(y^(k) - S^(k-1), ...) in the top variable only), so the Hessian
    solve reduces to one multiplication by the precomputed inverse metric.
    """
    top, lower = _row(k, q), _row(k - 1, q)
    rhs = sp.Matrix(q, 1, lambda v, _:
                    _gamma(sp.diff(L, top[v]), k, q) - sp.diff(L, lower[v]))
    sol = (ginv * rhs) / (4 * (k + 1))
    # stage 1 stays small and benefits from a normal form; later stages
    # blow up under expansion, so their trees are kept as built
    if k == 1:
        return [sp.cancel(sp.expand(sol[i, 0])) for i in range(q)]
    return [sol[i, 0] for i in range(q)]


def prolongation_coefficients(metric_programs, r, q):
    """Connection coefficients of the jet prolongation of a Levi-Civita metric.

    Returns r matrices M_(1..r), each q x q of expression programs over
    (x, y^(1..r)).  M_(1) is the linear Christoffel form Gamma(x) y^(1);
    higher coefficients follow the recursion

        M_(k+1) = (Gamma M_(k) + M_(1) M_(k)) / (k + 1),

    where Gamma is the jet derivation.  Each M_(k) vanishes on the zero
    section and reduces to zero for a flat metric, and the coframe rows
    delta y^(k) = dy^(k) + sum_j M_(j) dy^(k-j) transform tensorially
    under prolonged coordinate changes.

    These are the closed forms `folijet lift` prints; `LiftedMetric`
    computes the same values numerically at each jet point.
    """
    g = sp.Matrix(q, q, lambda i, j: to_sympy(metric_programs[i][j]))
    ginv = g.inv()
    x, y1 = _row(0, q), _row(1, q)
    gamma = [[[sp.S(0)] * q for _ in range(q)] for _ in range(q)]
    for a in range(q):
        for b in range(q):
            for c in range(q):
                s = sp.S(0)
                for d in range(q):
                    s += ginv[a, d] * (sp.diff(g[d, c], x[b])
                                       + sp.diff(g[b, d], x[c])
                                       - sp.diff(g[b, c], x[d]))
                gamma[a][b][c] = sp.cancel(s / 2)

    m1 = sp.Matrix(q, q, lambda a, b:
                   sum(gamma[a][b][m] * y1[m] for m in range(q)))
    matrices = [m1]
    for k in range(1, r):
        prev = matrices[-1]
        step = prev.applyfunc(lambda f: _gamma(f, k + 1, q)) + m1 * prev
        matrices.append((step / (k + 1)).applyfunc(
            lambda f: sp.cancel(sp.expand(f))))
    return [
        tuple(tuple(from_sympy(mat[i, j]) for j in range(q)) for i in range(q))
        for mat in matrices
    ]


class _LiftRecursion:
    """The lift recursion of one metric, extended one stage at a time.

    Stage k's spray is built only when stage k + 1 is asked for, and every
    stage and spray is built once.
    """

    def __init__(self, metric_programs, q):
        self.q = q
        self.g = sp.Matrix(q, q, lambda i, j: to_sympy(metric_programs[i][j]))
        self.ginv = None
        self.top = None  # sympy form of the highest stage built
        self.programs = []

    def _quad(self, vec):
        col = sp.Matrix(self.q, 1, lambda i, _: vec[i])
        return (col.T * self.g * col)[0, 0]

    def extend(self):
        q = self.q
        k = len(self.programs) + 1
        if k == 1:
            L = sp.expand(self._quad(_row(1, q)))
        else:
            if self.ginv is None:
                self.ginv = self.g.inv().applyfunc(sp.cancel)
            spray = _stage_spray(self.top, k - 1, q, self.ginv)
            L = self.top + self._quad([y - s for y, s in zip(_row(k, q),
                                                               spray)])
        self.top = L
        self.programs.append(from_sympy(L))


@lru_cache(maxsize=64)
def _lift_recursion(sources, q):
    """The recursion of the metric with these entry texts."""
    return _LiftRecursion([[exprmod.parse(text) for text in row]
                           for row in sources], q)


def lift_stages(metric_programs, r, q):
    """Run the lift recursion L^(k) = L^(k-1) + g(y^(k)-S^(k-1), ...).

    Returns the stages L^(1..r) as a tuple of expression programs.  The
    recursion is kept per metric, keyed on the entries' source text, so a
    later call for a higher order continues from the stages already built.
    """
    sources = tuple(tuple(p.source or p.to_text() for p in row)
                    for row in metric_programs)
    recursion = _lift_recursion(sources, q)
    while len(recursion.programs) < r:
        recursion.extend()
    return tuple(recursion.programs[:r])
