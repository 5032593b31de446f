"""Independent reference implementations used only by the tests.

Everything here except `eval_ast`, `full_space_spray_jacobian`,
`float_semispray` and `unseeded_prolong` deliberately avoids the library's own series arithmetic: jet transport is
recomputed with sympy power series,
products with literal polynomial convolution, the Legendre chain with
sympy derivatives (at r = 2) or high-precision mpmath differences of
nested solves (at any r) and mpmath root finding, the metric lift and its
connection coefficients in sympy, and derivatives with central finite
differences.  `eval_ast` and `collect_variables` are the
references for the compiled expression tape: they walk the AST
recursively, recomputing every repeated subtree, and `eval_ast` makes the
same elemental calls as the tape.  `full_space_spray_jacobian` is the
spray Jacobian as it was computed before `Series.split` returned parts
over the space of the other groups, and before the spray's space was
kept to first order in the lower coordinates: every part in the whole
space ((n, 2), (n, 1)).  `group_table_from_exponent_sums` is the product
table of one variable group as it was built before it was keyed on
degree sums: from the exponent sums of every pair of monomials.
`float_semispray` and `unseeded_prolong` are the spray and transport
kernels that the merged ones replaced: the spray's components computed on
floats, without their Jacobian, and transport on the jet curve with no
coefficient seeded, without its Jacobian.
`sample_major_product` and `sample_major_compose` are the product kernel
and the Horner loop of `scalars` as they ran before products became
entry-major: a batch gathered a[:, i] and b[:, j] and summed every
sample's terms in one bincount over the keys k + size * sample.  The
`*_draws` functions are the per-sample draw loops that the sampled checks
replaced by block draws, one sample and one jet row at a time, over
`SplitMix64`, the stream generator in plain int arithmetic, one draw at a
time.
`ray_levels_per_sample` is the ray search of admissibility condition (d)
as it ran before it became array arithmetic: one coroutine per sample,
fed by one evaluation of the samples still searching per round, whose
errors `samples_of` renames to the samples of the whole batch.
`recoordinatize` rewrites an atlas document as text in new transverse
coordinates, so that a certificate can be compared across coordinates.
"""

import math
import operator
import re
import sys
import zlib
from contextlib import contextmanager

import mpmath
import numpy as np
import sympy as sp

from folijet import linalg, scalars
from folijet.errors import FolijetError, UnboundVariable
from folijet.expr import Binary, Call, Num, Var, coordinate_names
from folijet.jets import jet_columns, jet_env
from folijet.legendre import RAY_REACH
from folijet.scalars import sample_error


def eval_ast(node, env):
    """Evaluate an expression AST by recursive descent."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariable(node.name) from None
    if isinstance(node, Call):
        return scalars.UNARY_FUNCTIONS[node.fn](eval_ast(node.arg, env))
    if isinstance(node, Binary):
        left = eval_ast(node.left, env)
        if node.op == "^":
            # integer literal exponents keep negative bases legal
            if isinstance(node.right, Num) and float(node.right.value).is_integer():
                n = int(node.right.value)
                if isinstance(left, scalars.Series):
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


def same_tree(a, b):
    """Whether two expression ASTs have the same node types and fields, by
    recursive descent; leaves compare by value."""
    if not isinstance(a, (Num, Var, Binary, Call)):
        return a == b
    return type(a) is type(b) and all(
        same_tree(getattr(a, f), getattr(b, f)) for f in type(a).__slots__)


def collect_variables(node):
    """The variable names an expression AST reads, by recursive descent."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Call):
        return collect_variables(node.arg)
    if isinstance(node, Binary):
        return collect_variables(node.left) | collect_variables(node.right)
    return set()


def eval_program(program, env):
    """`ExprProgram.eval` as the recursive walk: a float result comes back
    as a series whenever any env value is one."""
    result = eval_ast(program.ast, env)
    if isinstance(result, (int, float)):
        for sample in env.values():
            if isinstance(sample, scalars.Series):
                return sample.space.seed(result)
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


def chain_hamiltonian_r2(text, q, base, momentum, dps=30):
    """The r = 2 diagonal hamiltonian of a lagrangian, stage by stage.

    With p = `momentum` at both stages: stage 1 solves dL/dy2 = p for
    y2(y1); stage 0 solves dL/dy1 - d2L/dy1dy2 (d2L/dy2dy2)^-1 p = p for
    y1, the derivative of L(y1, y2(y1)).  Both use sympy derivatives and
    mpmath `findroot` at `dps` digits from zero starts.  Returns L / 2 at
    the solution, as a float.
    """
    x = [sp.Symbol(f"x{i+1}") for i in range(q)]
    y1 = [sp.Symbol(f"y1_{i+1}") for i in range(q)]
    y2 = [sp.Symbol(f"y2_{i+1}") for i in range(q)]
    L = sp.sympify(text.replace("^", "**"), locals={"e": sp.E, "pi": sp.pi})

    def compile_(e):
        return sp.lambdify(x + y1 + y2, e, "mpmath")

    lag = compile_(L)
    grad1 = [compile_(sp.diff(L, a)) for a in y1]
    grad2 = [compile_(sp.diff(L, a)) for a in y2]
    h12 = [[compile_(sp.diff(L, a, b)) for b in y2] for a in y1]
    h22 = [[compile_(sp.diff(L, a, b)) for b in y2] for a in y2]
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(v) for v in base]
        p = mpmath.matrix([mpmath.mpf(v) for v in momentum])

        def top(lower):
            def residual(*top_row):
                args = xs + lower + list(top_row)
                return [f(*args) - p[i] for i, f in enumerate(grad2)]
            found = mpmath.findroot(residual, [mpmath.mpf(0)] * q)
            return [found[i] for i in range(q)]

        def stage0(*lower):
            lower = list(lower)
            args = xs + lower + top(lower)
            m12 = mpmath.matrix([[f(*args) for f in row] for row in h12])
            m22 = mpmath.matrix([[f(*args) for f in row] for row in h22])
            rhs = m12 * mpmath.lu_solve(m22, p)
            return [grad1[a](*args) - rhs[a] - p[a] for a in range(q)]

        found = mpmath.findroot(stage0, [mpmath.mpf(0)] * q)
        lower = [found[i] for i in range(q)]
        return float(lag(*(xs + lower + top(lower))) / 2)


def chain_hamiltonian_nested(text, q, r, base, momentum, dps=40):
    """The order-r diagonal hamiltonian of a lagrangian by nested solves.

    With p = `momentum` at every stage: stage r is L; stage k < r solves
    d(stage k+1)/dy^(k+1) = p for y^(k+1) with mpmath `findroot` from a
    zero start and is stage k+1 at that root.  The innermost derivative is
    sympy's; every outer one is `mpmath.diff` of the nested solve itself,
    a central difference at twice the working precision, so the solves
    below it run at 2, 4, ... times `dps` digits.  Returns stage 0 / r, as
    a float.
    """
    symbols = [sp.Symbol(name) for name in coordinate_names(q, r)]
    L = sp.sympify(text.replace("^", "**"), locals={"e": sp.E, "pi": sp.pi})
    lag = sp.lambdify(symbols, L, "mpmath")
    top_grad = [sp.lambdify(symbols, sp.diff(L, v), "mpmath")
                for v in symbols[-q:]]
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(v) for v in base]
        p = [mpmath.mpf(v) for v in momentum]

        def root(residual):
            if q == 1:
                return [mpmath.findroot(lambda t: residual([t])[0],
                                        mpmath.mpf(0))]
            found = mpmath.findroot(lambda *t: residual(list(t)),
                                    [mpmath.mpf(0)] * q)
            return [found[i] for i in range(q)]

        def stage(k, rows):
            if k == r:
                return lag(*xs, *rows)
            if k == r - 1:
                top = root(lambda t: [g(*xs, *rows, *t) - p[i]
                                      for i, g in enumerate(top_grad)])
                return lag(*xs, *rows, *top)

            def residual(top):
                def along(i):
                    return lambda t: stage(
                        k + 1, [*rows, *top[:i], t, *top[i + 1:]])
                return [mpmath.diff(along(i), top[i]) - p[i]
                        for i in range(q)]

            return stage(k + 1, [*rows, *root(residual)])

        return float(stage(0, []) / r)


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


# -- the metric lift in sympy ----------------------------------------------

_SYMPY_FUNCTIONS = {"exp": sp.exp, "log": sp.log, "sin": sp.sin,
                    "cos": sp.cos, "tan": sp.tan, "sqrt": sp.sqrt,
                    "atan": sp.atan, "neg": operator.neg}
_SYMPY_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv, "^": operator.pow}


def to_sympy(program):
    """An expression program as a sympy expression, by recursive descent;
    integral literals become exact integers."""
    def conv(node):
        if isinstance(node, Num):
            v = node.value
            return sp.Integer(int(v)) if float(v).is_integer() else sp.Float(v)
        if isinstance(node, Var):
            return sp.Symbol(node.name, real=True)
        if isinstance(node, Call):
            return _SYMPY_FUNCTIONS[node.fn](conv(node.arg))
        return _SYMPY_BINARY[node.op](conv(node.left), conv(node.right))
    return conv(program.ast)


def _row(k, q):
    """The symbols of the jet row y^(k), with y^(0) = x."""
    return [sp.Symbol(name, real=True)
            for name in coordinate_names(q, k)[k * q:]]


def _gamma(f, k, q):
    """The derivation Gamma at order k, symbolically."""
    out = sp.Integer(0)
    for j in range(1, k + 1):
        for y, lower in zip(_row(j, q), _row(j - 1, q)):
            out += j * y * sp.diff(f, lower)
    return out


def sympy_lift_stages(metric_programs, r, q):
    """L^(1..r) of L^(k) = L^(k-1) + g(y^(k) - S^(k-1), ...) in sympy.

    The spray of each stage solves its vertical Hessian 2g with the
    inverse metric; stage 1 is brought to a normal form, later stages are
    kept as built.
    """
    g = sp.Matrix(q, q, lambda i, j: to_sympy(metric_programs[i][j]))
    ginv = g.inv().applyfunc(sp.cancel)

    def quad(vec):
        col = sp.Matrix(q, 1, lambda i, _: vec[i])
        return (col.T * g * col)[0, 0]

    stages = [sp.expand(quad(_row(1, q)))]
    for k in range(1, r):
        L, top, lower = stages[-1], _row(k, q), _row(k - 1, q)
        rhs = sp.Matrix(q, 1, lambda v, _: _gamma(sp.diff(L, top[v]), k, q)
                        - sp.diff(L, lower[v]))
        sol = (ginv * rhs) / (4 * (k + 1))
        spray = [sp.cancel(sp.expand(sol[i, 0])) if k == 1 else sol[i, 0]
                 for i in range(q)]
        stages.append(L + quad([y - s for y, s in zip(_row(k + 1, q),
                                                      spray)]))
    return stages


def sympy_prolongation_coefficients(metric_programs, r, q):
    """M_(1..r) as sympy matrices over (x, y^(1..r)).

    M_(1) is the Christoffel form Gamma(x) y^(1), and
    M_(k+1) = (Gamma M_(k) + M_(1) M_(k)) / (k + 1) with Gamma the jet
    derivation.  Only the Christoffel symbols are simplified.
    """
    g = sp.Matrix(q, q, lambda i, j: to_sympy(metric_programs[i][j]))
    ginv = g.inv()
    x, y1 = _row(0, q), _row(1, q)
    gamma = [[[sp.cancel(sum(ginv[a, d] * (sp.diff(g[d, c], x[b])
                                           + sp.diff(g[b, d], x[c])
                                           - sp.diff(g[b, c], x[d]))
                             for d in range(q)) / 2)
               for c in range(q)] for b in range(q)] for a in range(q)]
    m1 = sp.Matrix(q, q, lambda a, b:
                   sum(gamma[a][b][m] * y1[m] for m in range(q)))
    matrices = [m1]
    for k in range(1, r):
        prev = matrices[-1]
        step = prev.applyfunc(lambda f: _gamma(f, k + 1, q)) + m1 * prev
        matrices.append(step / (k + 1))
    return matrices


_FLOAT_FUNCTIONS = {sp.exp: math.exp, sp.log: math.log, sp.sin: math.sin,
                    sp.cos: math.cos, sp.tan: math.tan, sp.atan: math.atan}


def sympy_value(expression, env):
    """The float value of a sympy expression for an environment of floats.

    Every distinct subexpression is evaluated once, so a tree that repeats
    subtrees costs its distinct nodes, not its printed size.  Sums are
    rounded once, by `math.fsum`.
    """
    memo = {sp.Symbol(name, real=True): value for name, value in env.items()}

    def value(e):
        if e not in memo:
            if e.is_Number or e in (sp.pi, sp.E):
                memo[e] = float(e)
            elif e.is_Add:
                memo[e] = math.fsum(value(a) for a in e.args)
            elif e.is_Mul:
                memo[e] = math.prod(value(a) for a in e.args)
            elif e.is_Pow:
                memo[e] = value(e.args[0]) ** value(e.args[1])
            else:
                memo[e] = _FLOAT_FUNCTIONS[e.func](value(e.args[0]))
        return memo[e]

    return value(expression)


# -- the spray Jacobian over the whole space -------------------------------


def full_space_split(y, group):
    """The parts of `Series.split` as it was: each over the whole space of
    y, of degree zero in ``group``."""
    sp = y.space
    g = sp.shape[group]
    lead = y.coeffs.shape[:-1]
    block = y.coeffs.reshape(lead + (math.prod(sp.shape[:group]), g, -1))
    out = np.zeros((g,) + block.shape)
    n = block.ndim
    out[..., 0, :] = block.transpose(n - 2, *range(n - 2), n - 1)
    return [scalars.Series(sp, row.reshape(lead + (-1,))) for row in out]


def full_space_spray_jacobian(L, base, jets):
    """`SemiSprayField.jacobian_at` with its algebra in the whole space
    ((n, 2), (n, 1)), with no coordinate kept to first order: the Gamma
    terms and the solve on parts over the whole space."""
    r, q = L.order, L.qdim
    n = (r + 1) * q
    sp = scalars.space(((n, 2), (n, 1)))
    out = L.program.eval(jet_env(base, jets,
                                 lambda i, v: sp.seed(v, i, n + i)))
    _, grad, hess = scalars.second_order(full_space_split(out, 0), n)
    _, *rows = jet_columns(base, jets)
    rhs = []
    for v in range(q):
        gamma_term = 0.0
        for k in range(1, r + 1):
            for i in range(q):
                y_val = sp.seed(rows[k - 1][i], n + k * q + i)
                gamma_term = gamma_term + k * y_val * \
                    hess[r * q + v][(k - 1) * q + i]
        rhs.append(gamma_term - grad[(r - 1) * q + v])
    sol = linalg.solve([row[r * q:] for row in hess[r * q:]], rhs)
    scale = 1.0 / (2.0 * (r + 1))
    return np.stack([(scale * s).coeffs[..., sp.variables[n:]] for s in sol],
                    axis=-2)


def group_table_from_exponent_sums(exponents, cap):
    """(i, j, k) with monomial i times monomial j equal to monomial k,
    found from the exponent rows of every product of two monomials."""
    count = exponents.shape[1]
    total = exponents[:, None, :] + exponents[None, :, :]
    i, j = np.nonzero(total.sum(axis=-1) <= cap)
    radix = (cap + 1) ** np.arange(count, dtype=np.int64)
    keys = exponents @ radix
    order = np.argsort(keys)
    k = order[np.searchsorted(keys, total[i, j] @ radix, sorter=order)]
    return i, j, k


# -- the replaced float spray and unseeded transport kernels ------------------


def float_semispray(L, base, jets):
    """The semi-spray components (..., q) as the float-only kernel computed
    them: L over ((n, 2),), kept to first order in the lower coordinates,
    and the Gamma terms and the solve on floats."""
    r, q = L.order, L.qdim
    n = (r + 1) * q
    sp = scalars.space(((n, 2),), tuple(range(r * q)))
    out = L.program.eval(jet_env(base, jets, lambda i, v: sp.seed(v, i)))
    _, grad, hess = scalars.second_order(scalars.columns(out.coeffs), n)
    _, *rows = jet_columns(base, jets)
    rhs = []
    for v in range(q):
        gamma_term = 0.0
        for k in range(1, r + 1):
            for i in range(q):
                gamma_term = gamma_term + k * rows[k - 1][i] * \
                    hess[r * q + v][(k - 1) * q + i]
        rhs.append(gamma_term - grad[(r - 1) * q + v])
    sol = linalg.solve([row[r * q:] for row in hess[r * q:]], rhs)
    scale = 1.0 / (2.0 * (r + 1))
    return np.stack([scale * s for s in sol], axis=-1)


def unseeded_prolong(atlas, transition, leaf, base, jets):
    """The image leaf, base and jet rows of points carried across a
    transition, with the transverse maps evaluated on the jet curve over
    the space ((1, r),), no coefficient seeded."""
    base = np.asarray(base, dtype=float)
    lead, q = base.shape[:-1], base.shape[-1]
    rows = np.concatenate(
        [base[..., None, :], np.reshape(jets, lead + (-1, q))], axis=-2)
    sp = scalars.space(((1, rows.shape[-2] - 1),))
    env = {name: scalars.Series(sp, rows[..., i])
           for i, name in enumerate(coordinate_names(q))}
    coeffs = np.stack([e.eval(env).coeffs
                       for e in transition.transverse_exprs], axis=-1)
    flat_env = dict(zip(coordinate_names(atlas.q, p=atlas.p), scalars.columns(
        np.concatenate([leaf, base], axis=-1))))
    new_leaf = [e.eval(flat_env) for e in transition.leaf_exprs]
    new_leaf = np.stack(new_leaf, axis=-1) if new_leaf else np.zeros(lead + (0,))
    return new_leaf, coeffs[..., 0, :], coeffs[..., 1:, :]


# -- the sample-major product kernel ------------------------------------------


def sample_major_product(sp, a, b, chunk=1 << 15):
    """The coefficients of a times b over `sp`, either or both a batch of
    shape (B, size), at most `chunk` table terms at a time."""
    i, j, k = sp.table
    if a.ndim == 1 == b.ndim:
        return np.bincount(k, a[i] * b[j], sp.size)
    batch = len(a) if a.ndim == 2 else len(b)
    a = np.broadcast_to(a, (batch, sp.size))
    b = np.broadcast_to(b, (batch, sp.size))
    step = max(1, chunk // len(k))
    out = np.empty((batch, sp.size))
    for s in range(0, batch, step):
        n = len(a[s:s + step])
        keys = (k + sp.size * np.arange(n)[:, None]).ravel()
        terms = a[s:s + step, i] * b[s:s + step, j]
        out[s:s + step] = np.bincount(keys, terms.ravel(),
                                      n * sp.size).reshape(n, sp.size)
    return out


def sample_major_compose(sp, coeffs, f):
    """sum_k f[k] (c - c_0)^k by Horner, for the coefficients `coeffs` of
    a series c over `sp` and the Taylor coefficients f of a univariate
    function at c_0, with `sample_major_product`."""
    h = np.array(coeffs, dtype=float)
    h[..., 0] = 0.0
    out = np.zeros(h.shape)
    out[..., 0] = f[-1]
    for fk in f[-2::-1]:
        out = sample_major_product(sp, out, h)
        out[..., 0] += fk
    return out


# -- per-sample draws --------------------------------------------------------

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z):
    """The SplitMix64 output function of a 64-bit int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Draws of the stream keyed `key` one at a time from draw `start`:
    draw c is splitmix64(key + (c + 1) gamma).  The normals take numpy's
    log1p and cos, as libm's log1p differs from numpy's in the last bit
    for some arguments."""

    def __init__(self, key, start=0):
        self.key, self.count = key, start

    @classmethod
    def of(cls, seed, label, *salt, start=0):
        """The stream of a check: from key 0, each part p (seed, CRC-32 of
        the label, salts) makes draw 0 of the stream keyed key + p the
        key."""
        key = 0
        for part in (seed, zlib.crc32(label.encode()), *salt):
            key = splitmix64((key + part + GAMMA) & MASK64)
        return cls(key, start)

    def next(self):
        self.count += 1
        return splitmix64((self.key + self.count * GAMMA) & MASK64)

    def unit(self):
        return (self.next() >> 11) * 2.0 ** -53

    def random(self, n):
        return np.array([self.unit() for _ in range(n)])

    def uniform(self, lo, hi, n):
        return np.array([lo + (hi - lo) * self.unit() for _ in range(n)])

    def standard_normal(self, n):
        out = []
        for _ in range(n):
            u1, u2 = self.unit(), self.unit()
            out.append(np.sqrt(-2.0 * np.log1p(-u1))
                       * np.cos(2.0 * np.pi * u2))
        return np.array(out)


def _stacked(rows):
    """Per-sample rows on a batch axis; one sample stays unbatched."""
    return np.asarray(rows[0] if len(rows) == 1 else rows, dtype=float)


def _box_point(rng, box):
    box = np.asarray(box, dtype=float)
    return box[:, 0] + rng.random(len(box)) * (box[:, 1] - box[:, 0])


def jet_rows(rng, r, q, scale=1.0):
    """r jet rows in [-scale, scale], drawn one row at a time."""
    return [rng.uniform(-scale, scale, q) for _ in range(r)]


def _chart_draws(atlas, chart, samples, seed, salt, draw_rest):
    rng = SplitMix64.of(seed, chart, salt)
    box = atlas.charts[chart].domain[atlas.p:]
    drawn = [(_box_point(rng, box), draw_rest(rng))
             for _ in range(samples)]
    return tuple(map(_stacked, zip(*drawn)))


def projector_draws(atlas, chart, samples, seed, r):
    """Bases and jets of the projector checks in a chart."""
    return _chart_draws(atlas, chart, samples, seed, 11,
                        lambda rng: jet_rows(rng, r, atlas.q))


def hamiltonian_draws(atlas, chart, samples, seed):
    """Bases and momenta of the diagonal-hamiltonian check in a chart: each
    base draws w, and its momentum is g(base) w for the atlas's metric g."""
    bases, w = _chart_draws(atlas, chart, samples, seed, 13,
                            lambda rng: rng.uniform(-2.0, 2.0, atlas.q))
    g = atlas.metrics["g"][chart].evaluate(bases)
    return bases, np.sum(g * w[..., None, :], axis=-1)


def holonomy_draws(transition, samples, seed, r, q):
    """The jets of the holonomy check on a transition."""
    rng = SplitMix64.of(seed, transition.name, 7)
    return _stacked([jet_rows(rng, r, q) for _ in range(samples)])


def vertical_exactness_draws(box, samples, seed, r, q, jet_scale):
    """Bases and jets of the vertical-exactness check."""
    rng = SplitMix64.of(seed, "vexact", 3)
    drawn = [(_box_point(rng, box), jet_rows(rng, r, q, jet_scale))
             for _ in range(samples)]
    return tuple(map(_stacked, zip(*drawn)))


def admissible_draws(L, box, samples, seed, jet_scale):
    """Bases, jets (r q) and unit ray directions of the admissibility check,
    each sample read at its own draws: its base and jets, then, after every
    sample's, its direction, from the stream of "admissible"; jets that L
    excludes are drawn again, up to 50 times, attempt a from the stream
    salted a at the sample's row."""
    r, q = L.order, L.qdim
    m = r * q
    names = coordinate_names(q, r)
    drawn = []
    for i in range(samples):
        rng = SplitMix64.of(seed, "admissible", start=i * (q + m))
        base = _box_point(rng, box)
        jets = rng.uniform(-jet_scale, jet_scale, m)
        if L.excluded is not None:
            for attempt in range(1, 51):
                env = dict(zip(names, [*base, *jets]))
                if float(L.excluded.eval(env)) > 0.0:
                    break
                jets = SplitMix64.of(seed, "admissible", attempt,
                                     start=i * m).uniform(-jet_scale,
                                                          jet_scale, m)
        direction = SplitMix64.of(seed, "admissible",
                                  start=samples * (q + m) + 2 * i * m
                                  ).standard_normal(m)
        direction /= np.linalg.norm(direction)
        drawn.append((base, jets, direction))
    return tuple(map(_stacked, zip(*drawn)))


# -- the ray search of admissibility condition (d), one sample at a time -----


def _ray_search(phi_value):
    """Deviation from the level phi where a fiber ray crosses it, or None
    when no t <= 2^59 reaches phi, as a coroutine: it yields each t to
    evaluate and is sent back the value and the slope of the ray there.

    From t = 1 the bracket [lo, hi] grows by at least doubling t, or by a
    longer Newton step up to 16 t, until the value reaches phi; then Newton
    steps narrow it, bisecting whenever a step leaves it, until the
    deviation is at roundoff or the bracket cannot shrink.
    """
    lo, hi, t = 0.0, math.inf, 1.0
    roundoff = 4.0 * sys.float_info.epsilon * max(1.0, abs(phi_value))
    for _ in range(300):
        v, slope = yield t
        dev = v - phi_value
        if abs(dev) <= roundoff:
            break
        if dev < 0.0:
            lo = t
        else:
            hi = t
        step = t - dev / slope if slope > 0.0 else math.nan
        if hi == math.inf:
            if t >= RAY_REACH:
                return None
            t_next = min(step if step > 2.0 * t else 2.0 * t, 16.0 * t,
                         RAY_REACH)
        else:
            t_next = step if lo < step < hi else 0.5 * (lo + hi)
            if not lo < t_next < hi or t_next == t:
                break
        t = t_next
    return abs(dev)


@contextmanager
def samples_of(idx):
    """Context for work on the samples `idx` of a batch: an error it raises
    for its sample s names sample idx[s] of the batch instead."""
    try:
        yield
    except FolijetError as err:
        if idx is None or getattr(err, "sample", None) is None:
            raise
        raise sample_error(type(err), err.detail, int(idx[err.sample])) \
            from None


def ray_levels_per_sample(value_at, phi_value, batch):
    """`_ray_search` for each sample of a batch of `batch` (None:
    unbatched), with the levels phi_value; each round evaluates the rays of
    all samples still searching at once, by `value_at(t, idx)` for the
    samples idx (None: all).  The deviations, None for unbracketed rays."""
    phis = np.broadcast_to(phi_value, (batch or 1,)).tolist()
    searches = [_ray_search(phi) for phi in phis]
    pending = {s: search.send(None) for s, search in enumerate(searches)}
    levels = [None] * len(searches)
    while pending:
        samples = list(pending)
        sel = None if len(samples) == len(searches) else np.array(samples)
        t = np.array(list(pending.values())) if batch else pending[0]
        with samples_of(sel):
            v, slope = (np.atleast_1d(x).tolist() for x in value_at(t, sel))
        for s, point in zip(samples, zip(v, slope)):
            try:
                pending[s] = searches[s].send(point)
            except StopIteration as done:
                levels[s] = done.value
                del pending[s]
    return levels


# -- an atlas document in other transverse coordinates ----------------------

# x = phi(z) on one coordinate, as texts over the placeholder {} (phi, its
# inverse and its derivative), with the inverse as a float function for the
# interval ends
COORDINATE_MAPS = {
    "exp": ("exp({})", "log({})", "exp({})", math.log),
    "affine": ("(2*{} - 0.3)", "(({} + 0.3)/2)", "2", lambda x: (x + 0.3) / 2),
    "flip": ("(0.5 - {})", "(0.5 - {})", "(0 - 1)", lambda x: 0.5 - x),
    "cube": ("({}^3)", "({}^(1/3))", "(3*{}^2)", lambda x: x ** (1 / 3)),
}


def _substitute(text, values):
    """`text` with every transverse coordinate x_i replaced by
    values[i - 1], all in one pass."""
    return re.sub(r"\bx([1-9][0-9]*)\b",
                  lambda m: f"({values[int(m.group(1)) - 1]})", text)


def recoordinatize(doc, maps, perm):
    """The atlas document `doc` in the transverse coordinates z given in
    every chart by x_i = phi_i(z_perm[i]), phi_i = COORDINATE_MAPS[maps[i]].

    Boxes take the inverse images of their intervals, ends swapped for a
    decreasing map; transitions are conjugated, metrics pulled back by the
    diagonal Jacobian, and lagrangians dropped.  The z are named x1, x2, ...
    in the result, as every atlas names its transverse coordinates.
    """
    p, q = doc["leaf_dim"], doc["transverse_dim"]
    forward, inverse, derivative, pull = zip(
        *(COORDINATE_MAPS[name] for name in maps))
    z = [f"x{perm[i] + 1}" for i in range(q)]
    x_of_z = [forward[i].format(z[i]) for i in range(q)]

    def box(intervals):
        out = list(intervals)
        for i in range(q):
            ends = sorted(pull[i](v) for v in intervals[p + i])
            out[p + perm[i]] = ends
        return out

    def transverse(texts):
        out = [None] * q
        for i, text in enumerate(texts):
            out[perm[i]] = inverse[i].format(
                f"({_substitute(text, x_of_z)})")
        return out

    def pullback(rows):
        out = [[None] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                out[perm[a]][perm[b]] = (
                    f"{derivative[a].format(z[a])}*{derivative[b].format(z[b])}"
                    f"*({_substitute(str(rows[a][b]), x_of_z)})")
        return out

    return {
        "leaf_dim": p,
        "transverse_dim": q,
        "charts": [dict(c, domain=box(c["domain"])) for c in doc["charts"]],
        "transitions": [
            dict(t, overlap=box(t["overlap"]),
                 leaf_exprs=[_substitute(e, x_of_z)
                             for e in t.get("leaf_exprs", [])],
                 transverse_exprs=transverse(t["transverse_exprs"]))
            for t in doc["transitions"]],
        "triples": [dict(t, overlap=box(t["overlap"]))
                    for t in doc.get("triples", [])],
        "metrics": [dict(m, components=pullback(m["components"]))
                    for m in doc.get("metrics", [])],
    }
