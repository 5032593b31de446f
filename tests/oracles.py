"""Independent reference implementations used only by the tests.

Everything here except `eval_ast` deliberately avoids the library's own
Taylor/dual arithmetic: jet transport is recomputed with sympy power
series, products with literal polynomial convolution, and derivatives with
central finite differences.  `eval_ast` and `collect_variables` are the
references for the compiled expression tape: they walk the AST
recursively, recomputing every repeated subtree, and `eval_ast` makes the
same elemental calls as the tape.
"""

import numpy as np
import sympy as sp

from folijet import scalars
from folijet.errors import UnboundVariable
from folijet.expr import CONSTANTS, Binary, Call, Const, Num, Unary, Var


def eval_ast(node, env):
    """Evaluate an expression AST by recursive descent."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariable(node.name) from None
    if isinstance(node, Unary):
        return -eval_ast(node.arg, env)
    if isinstance(node, Call):
        return scalars.UNARY_FUNCTIONS[node.fn](eval_ast(node.arg, env))
    if isinstance(node, Binary):
        left = eval_ast(node.left, env)
        if node.op == "^":
            # integer literal exponents keep negative bases legal
            if isinstance(node.right, Num) and float(node.right.value).is_integer():
                n = int(node.right.value)
                if isinstance(left, (scalars.TaylorScalar, scalars.DualScalar,
                                     scalars.DualQuadScalar)):
                    return left ** n
                return scalars.power(left, n)
            return scalars.power(left, eval_ast(node.right, env))
        right = eval_ast(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return scalars._div(left, right)
    raise TypeError(f"unknown AST node {node!r}")


def collect_variables(node):
    """The variable names an expression AST reads, by recursive descent."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, (Unary, Call)):
        return collect_variables(node.arg)
    if isinstance(node, Binary):
        return collect_variables(node.left) | collect_variables(node.right)
    return set()


def eval_program(program, env):
    """`ExprProgram.eval` as the recursive walk: literal-only programs
    come back in the env's kind."""
    result = eval_ast(program.ast, env)
    if isinstance(result, (int, float)) and env:
        for sample in env.values():
            if not isinstance(sample, (int, float)):
                return scalars.constant_like(sample, result)
            break
    return result


def convolve_series(a, b):
    """Cauchy product of two truncated coefficient tuples."""
    n = min(len(a), len(b))
    return tuple(
        sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)
    )


def sympy_series_coeffs(fn_name, coeffs):
    """Coefficients of fn(series) through sympy, same truncation order."""
    t = sp.Symbol("t")
    series = sum(sp.Float(c, 30) * t**k for k, c in enumerate(coeffs))
    fn = getattr(sp, fn_name)
    expanded = sp.series(fn(series), t, 0, len(coeffs)).removeO()
    return tuple(float(sp.expand(expanded).coeff(t, k))
                 for k in range(len(coeffs)))


def sympy_prolong(transverse_texts, base, jets):
    """Jet transport recomputed with sympy series composition.

    `transverse_texts` are the transition's transverse expressions as
    text; returns (new_base, new_jets) with the same shapes as the input.
    """
    q = len(base)
    r = len(jets)
    t = sp.Symbol("t")
    subs = {}
    for i in range(q):
        curve = sp.Float(base[i], 30) + sum(
            sp.Float(jets[k][i], 30) * t**(k + 1) for k in range(r)
        )
        subs[sp.Symbol(f"x{i+1}", real=True)] = curve
        subs[sp.Symbol(f"x{i+1}")] = curve
    new_base = []
    new_jets = [[0.0] * q for _ in range(r)]
    for i, text in enumerate(transverse_texts):
        expr = sp.sympify(text.replace("^", "**"))
        composed = sp.series(expr.subs(subs, simultaneous=True), t, 0,
                             r + 1).removeO()
        composed = sp.expand(composed)
        new_base.append(float(composed.coeff(t, 0)))
        for k in range(1, r + 1):
            new_jets[k - 1][i] = float(composed.coeff(t, k))
    return tuple(new_base), tuple(tuple(row) for row in new_jets)


def coframe_metric(g_value, coefficients):
    """Fiber metric with one orthogonal copy of g per coframe row.

    The rows are dy^(k) + sum_j M_(j) dy^(k-j) for k = 0..r, with the
    float matrices M_(1..r) given in `coefficients`; literal block loops.
    """
    q = len(g_value)
    blocks = [np.eye(q)] + list(coefficients)
    n = len(blocks) * q
    G = np.zeros((n, n))
    for k in range(len(blocks)):
        row = np.zeros((q, n))
        for j in range(k + 1):
            row[:, (k - j) * q:(k - j + 1) * q] = blocks[j]
        G += row.T @ g_value @ row
    return G


def central_difference(fn, x, h=1e-6):
    """Gradient of fn: R^n -> R by central differences."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return out


def central_difference_vector(fn, x, h=1e-6):
    """Jacobian of fn: R^n -> R^m by central differences."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def central_hessian(fn, x, h=1e-4):
    """Hessian of fn: R^n -> R by second-order central differences."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(x + ei) - 2 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej)
                - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4 * h**2)
    return out
