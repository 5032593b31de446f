"""Small expression language for charts, metrics and lagrangians.

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # '^' right-associative
    unary  := '-' unary | atom
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds tighter than '^', so ``-x1^2`` parses as ``(-x1)^2``.
Functions are frozen to the scalar-kernel set; constants are ``pi`` and
``e``.  Variable names follow the coordinate grammar ``u<i>``, ``x<i>``,
``y<k>_<i>``, ``p_<i>`` with 1-based indices.  `coordinate_names` owns the
layout of the jet coordinates: leaf ``u``, transverse ``x``, then the jet
rows ``y^(1..r)``, in that slot order; every environment in the package
pairs its names with values.

Parentheses, unary minus and ``^`` nest at most ``MAX_NESTING`` levels deep.

Programs and AST nodes are plain classes, compared and hashed by
identity and treated as immutable.  Each program is compiled once, on
first use, to a tape in which every repeated subexpression is one shared
slot, and evaluation runs the tape in one loop over plain floats and
series (`scalars.Series`), mixed; a float result comes back as a series
if any env value is one.  Env values may be batches (a float ndarray, or
a series with a batch axis): one pass of the tape then evaluates every
sample.  A `Graph` builds programs with shared nodes and their symbolic
derivatives.
"""

from __future__ import annotations

import contextlib
import math
import operator
import re
import struct
from functools import cached_property, reduce
from typing import Any, Mapping

from . import scalars
from .errors import (DomainError, ExprSyntaxError, UnboundVariable,
                     UnknownFunction)

__all__ = [
    "ExprProgram",
    "parse",
    "Num",
    "Var",
    "Binary",
    "Call",
    "coordinate_names",
    "Graph",
]

VARIABLE_NAME = re.compile(
    r"^(u[1-9][0-9]*|x[1-9][0-9]*|y[1-9][0-9]*_[1-9][0-9]*|p_[1-9][0-9]*)$"
)

CONSTANTS = {"pi": math.pi, "e": math.e}

# the parser recurses once per level, so deeper input is a syntax error
MAX_NESTING = 100

FUNCTIONS = frozenset(
    ["exp", "log", "sin", "cos", "tan", "sqrt", "atan", "neg"]
)


def is_variable_name(name: str) -> bool:
    return VARIABLE_NAME.match(name) is not None


def coordinate_names(q, r=0, p=0) -> list:
    """Names of u1..up, x1..xq, y1_1..yr_q, in slot order.

    Row y^(k) occupies the names ``[p + k*q, p + (k+1)*q)``, with y^(0) = x.
    """
    return ([f"u{i}" for i in range(1, p + 1)]
            + [f"x{i}" for i in range(1, q + 1)]
            + [f"y{k}_{i}" for k in range(1, r + 1) for i in range(1, q + 1)])


# -- AST --------------------------------------------------------------------


class Num:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Binary:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Any, right: Any):
        # op is one of + - * / ^
        self.op, self.left, self.right = op, left, right


class Call:
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Any):
        self.fn, self.arg = fn, arg


# -- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind, self.text = kind, text  # kind "num", "name", "op" or "end"
        self.line, self.column = line, column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group(0)
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected {expected}, got {got}", tok.line, tok.column)

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        self.fail(f"{op!r}")

    def nested(self, parse_fn):
        """Run `parse_fn` one level of parentheses, '-' or '^' deeper."""
        if self.depth >= MAX_NESTING:
            tok = self.peek()
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels",
                tok.line, tok.column)
        self.depth += 1
        node = parse_fn()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        if self.peek().kind != "end":
            self.fail("end of input")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            # right-associative
            node = Binary("^", node, self.nested(self.factor))
        return node

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Call("neg", self.nested(self.unary))
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunction(
                        f"unknown function {tok.text!r}", tok.line, tok.column
                    )
                self.advance()
                arg = self.nested(self.expr)
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text])
            if not is_variable_name(tok.text):
                raise ExprSyntaxError(
                    f"unknown variable name {tok.text!r}", tok.line, tok.column
                )
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.nested(self.expr)
            self.expect_op(")")
            return node
        self.fail("a number, name or '('")


# -- compilation ------------------------------------------------------------
#
# A program compiles once into a tape (Griewank & Walther, *Evaluating
# Derivatives*, ch. 2): a straight-line list of elemental operations in the
# order a left-to-right post-order walk of the AST first meets them, with
# each distinct (operation, operand slots) pair computed once.  Instruction
# i is ``(op, out, a, b)`` and writes register ``out``:
#
#     (CONST, out, value, None)   a number, as a float
#     (LOAD,  out, name,  None)   a variable read from the environment
#     (fn,    out, a,     None)   fn(register a)
#     (fn,    out, a,     b)      fn(register a, register b)
#
# ``^`` is `scalars.power` whatever its exponent: an integer-valued float
# exponent keeps a negative base legal there, so a literal like the 2 of
# ``x^2`` is a float constant like any other.
#
# A register is reused once the last reader of its value has run, so an
# evaluation holds only the intermediates that are still to be read.

CONST = "const"
LOAD = "load"


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": scalars._div, "^": scalars.power}


def _children(node):
    if isinstance(node, Binary):
        return (node.left, node.right)
    return (node.arg,) if isinstance(node, Call) else ()


def _compile(root):
    """Compile an AST into ``(tape, register count, result register)``.

    One iterative post-order pass keys every node by (op, operand slots);
    constants are keyed by their float bits, so 0.0 and -0.0 stay apart.
    """
    slot_of = {}  # id(node) -> slot
    slot_by_key = {}
    code = []  # slot -> (CONST, value), (LOAD, name) or (fn, operand slots)

    def intern(key, entry=None):
        slot = slot_by_key.setdefault(key, len(code))
        if slot == len(code):
            code.append(key if entry is None else entry)
        return slot

    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in slot_of:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in slot_of]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if isinstance(node, Var):
            slot = intern((LOAD, node.name))
        elif isinstance(node, Num):
            slot = intern((CONST, type(node.value),
                           struct.pack("<d", node.value)), (CONST, node.value))
        else:
            slots = tuple(slot_of[id(c)] for c in _children(node))
            if isinstance(node, Call):
                op = scalars.UNARY_FUNCTIONS[node.fn]
            else:
                op = _BINARY[node.op]
            slot = intern((op, slots))
        slot_of[id(node)] = slot
    return _allocate(code, slot_of[id(root)])


def _allocate(code, result):
    """Give each slot a register, reusing those whose last reader has run."""
    last_read = {}
    for i, (op, args) in enumerate(code):
        if op is not CONST and op is not LOAD:
            for a in args:
                last_read[a] = i
    last_read[result] = len(code)  # the result outlives the tape
    register = []
    free = []
    count = 0
    tape = []
    for i, (op, args) in enumerate(code):
        if op is CONST or op is LOAD:
            operands = (args, None)
        else:
            operands = tuple(register[a] for a in args)
            # x*x reads one slot twice but frees its register once
            free.extend(register[a] for a in dict.fromkeys(args)
                        if last_read[a] == i)
        if free:
            out = free.pop()
        else:
            out, count = count, count + 1
        register.append(out)
        tape.append((op, out) + operands + (None,) * (2 - len(operands)))
    return tuple(tape), count, register[result]


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _operands(node):
    """A node's operands, each with the precedence it is printed under;
    the right one of a left-associative operation a level higher."""
    if isinstance(node, Binary):
        prec = _PRECEDENCE[node.op]
        return ((node.left, prec),
                (node.right, prec if node.op == "^" else prec + 1))
    return ((node.arg, 4 if node.fn == "neg" else 0),) \
        if isinstance(node, Call) else ()


def _print(root) -> str:
    """The text of an AST, built from an explicit stack, as a built graph
    may nest deeper than the interpreter's stack; each shared node is
    printed once per precedence it is printed under."""
    done = {}  # (id(node), parent's precedence) -> text
    stack = [(root, 0)]
    while stack:
        node, parent_prec = stack[-1]
        operands = _operands(node)
        pending = [o for o in operands if (id(o[0]), o[1]) not in done]
        if pending:
            stack += pending
            continue
        stack.pop()
        args = [done[id(n), p] for n, p in operands]
        if isinstance(node, Num):
            v = node.value
            text = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
            wrap = v < 0 and parent_prec > 0
        elif isinstance(node, Var):
            text, wrap = node.name, False
        elif isinstance(node, Call):
            text, wrap = (f"-{args[0]}", parent_prec >= 1) \
                if node.fn == "neg" else (f"{node.fn}({args[0]})", False)
        else:
            prec = _PRECEDENCE[node.op]
            text = f" {node.op} ".join(args) if node.op in "+-" \
                else node.op.join(args)
            wrap = parent_prec > prec or (node.op == "^"
                                          and parent_prec == prec)
        done[id(node), parent_prec] = f"({text})" if wrap else text
    return done[id(root), 0]


class ExprProgram:
    """An immutable expression, evaluated from its compiled tape.

    `source` is the text the program was parsed from; a program built on
    a `Graph` prints its source the first time it is read.  Programs, like
    their AST nodes, compare and hash by identity, so no graph is ever
    walked as a tree.
    """

    def __init__(self, ast, source=None):
        self.ast = ast
        if source is not None:
            self.__dict__["source"] = source

    @cached_property
    def source(self) -> str:
        return _print(self.ast)

    @cached_property
    def _compiled(self):
        return _compile(self.ast)

    @property
    def tape(self) -> tuple:
        """The instructions ``(op, out, a, b)``, one per distinct slot."""
        return self._compiled[0]

    def eval(self, env: Mapping[str, Any]):
        tape, registers, result = self._compiled
        regs = [None] * registers
        for op, out, a, b in tape:
            if b is not None:
                regs[out] = op(regs[a], regs[b])
            elif op is LOAD:
                try:
                    regs[out] = env[a]
                except KeyError:
                    raise UnboundVariable(a) from None
            elif op is CONST:
                regs[out] = a
            else:
                regs[out] = op(regs[a])
        value = regs[result]
        if type(value) is scalars.Series:
            return value
        # a value that read no series still comes back in the env's kind,
        # and one that read no batch in the env's batch
        sp = batch = None
        for sample in env.values():
            if type(sample) is scalars.Series:
                sp = sample.space
            batch = scalars.batch_of(sample) or batch
        if sp is not None:
            value = sp.seed(value)
        return value if batch is None else scalars.broadcast(value, batch)

    def free_variables(self) -> frozenset:
        return frozenset(a for op, _, a, _ in self.tape if op is LOAD)

    def to_text(self) -> str:
        return _print(self.ast)


def parse(text: str) -> ExprProgram:
    """Parse expression text into an immutable program."""
    return ExprProgram(_Parser(text).parse(), text)


# -- expression graphs ------------------------------------------------------
#
# Every repeated subexpression of a graph is one node (Griewank & Walther,
# ch. 6; Guenter, SIGGRAPH 2007), interned on its operation and the ids of
# its operands, never on its value: hashing or comparing a shared graph
# walks it as a tree, in time exponential in its depth, and its text is as
# long as the tree.


_METHODS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}

# f'(u) for f(u) = node, in terms of u, the node and the graph
_DERIVATIVES = {
    "exp": lambda G, u, f: f,
    "log": lambda G, u, f: G.div(G.one, u),
    "sin": lambda G, u, f: G.call("cos", u),
    "cos": lambda G, u, f: G.mul(G.num(-1.0), G.call("sin", u)),
    "tan": lambda G, u, f: G.add(G.one, G.mul(f, f)),
    "sqrt": lambda G, u, f: G.div(G.num(0.5), f),
    "atan": lambda G, u, f: G.div(G.one, G.add(G.one, G.mul(u, u))),
}


class Graph:
    """Builds shared AST nodes and their symbolic derivatives.

    Operations on numbers fold when the result is finite.  Products keep
    one normal form (see `_product`), so like factors merge, x*0, x*1 and
    1/(1/x) fold away, and like multiples of one product sum to one.
    ``diff`` is memoised per (node, variable) and skips every node free
    of the variable.
    """

    def __init__(self):
        self._nodes = {}  # (op, operand ids) or ("num", bits) -> node
        self._free = {}  # id(node) -> frozenset of the variables it reads
        self._rank = {}  # id(node) -> the order the graph made it in
        self._derivatives = {}  # variable -> {id(node): derivative}
        self.zero, self.one = self.num(0.0), self.num(1.0)

    def _add_node(self, key, node, free):
        self._nodes[key] = node
        self._free[id(node)], self._rank[id(node)] = free, len(self._rank)
        return node

    def _make(self, op, *args):
        """The node of `op` on `args`, folded to a number if they are."""
        if all(type(a) is Num for a in args):
            with contextlib.suppress(DomainError, ArithmeticError, ValueError):
                value = (_BINARY.get(op) or scalars.UNARY_FUNCTIONS[op])(
                    *(a.value for a in args))
                if math.isfinite(value):
                    return self.num(value)
        key = (op, *map(id, args))
        return self._nodes.get(key) or self._add_node(
            key, Binary(op, *args) if len(args) == 2 else Call(op, *args),
            frozenset().union(*(self._free[id(a)] for a in args)))

    def num(self, value):
        key = ("num", struct.pack("<d", value))
        return self._nodes.get(key) or self._add_node(key, Num(float(value)),
                                                      frozenset())

    def var(self, name):
        return self._nodes.get(("var", name)) or self._add_node(
            ("var", name), Var(name), frozenset((name,)))

    def _factors(self, node, c, powers):
        """Multiply `c` and `powers` (id(base) -> [base, exponent]) by the
        factors of `node`; the new coefficient."""
        stack = [node]
        while stack:
            n = stack.pop()
            if type(n) is Num:
                c *= n.value
            elif type(n) is Binary and n.op == "*":
                stack += [n.right, n.left]
            elif type(n) is Binary and n.op == "^" and type(n.right) is Num:
                powers.setdefault(id(n.left), [n.left, 0.0])[1] += \
                    n.right.value
            else:
                powers.setdefault(id(n), [n, 0.0])[1] += 1.0
        return c

    def _product(self, c, powers):
        """c times the powers [base, exponent] in the normal form: the
        factors in the order the graph made them, the number scaling the
        first, so products that share their first factors share a chain."""
        out = None
        for base, e in sorted(powers, key=lambda p: self._rank[id(p[0])]):
            e = round(e) if abs(e - round(e)) < 1e-12 else e  # x^a x^-a = 1
            if e != 0.0:
                f = base if e == 1.0 else self._make("^", base, self.num(e))
                out = (f if c == 1.0 else self._make("*", self.num(c), f)) \
                    if out is None else self._make("*", out, f)
        return self.num(c) if out is None or c == 0.0 else out

    def mul(self, a, b):
        powers = {}
        c = self._factors(b, self._factors(a, 1.0, powers), powers)
        return self._product(c, powers.values())

    def div(self, a, b):
        if a is b:
            return self.one
        if type(a) is Num or type(b) is Num or (type(b) is Binary
                                                and b.op in "*^"):
            # a times the reciprocal of the product b
            powers = {}
            c = self._factors(b, 1.0, powers)
            if c != 0.0:
                return self.mul(a, self._product(
                    1.0 / c, [(base, -e) for base, e in powers.values()]))
        return self._make("/", a, b)

    def add(self, a, b, sign=1.0):
        """a + sign b; like multiples of one product fold to one."""
        pa, pb = {}, {}
        ca, cb = self._factors(a, 1.0, pa), self._factors(b, 1.0, pb)
        if {k: e for k, (_, e) in pa.items() if e} == \
                {k: e for k, (_, e) in pb.items() if e}:
            return self._product(ca + sign * cb, pa.values())
        if ca == 0.0:
            return self.mul(self.num(sign), b)
        return a if cb == 0.0 else self._make("+" if sign > 0 else "-", a, b)

    def sub(self, a, b):
        return self.add(a, b, -1.0)

    def pow(self, a, b):
        return self._product(1.0, [(a, b.value)]) if type(b) is Num \
            else self._make("^", a, b)

    def call(self, fn, a):
        return self.mul(self.num(-1.0), a) if fn == "neg" else \
            self._make(fn, a)

    def sum(self, terms):
        return reduce(self.add, terms, self.zero)

    def _post_order(self, root, done, build, leaf=lambda node: None):
        """done[id(node)] = build(node, results of its children) for every
        node under `root` not yet done, without recursion; a node for which
        `leaf` gives a result is not descended into."""
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in done:
                continue
            out = leaf(node)
            if out is None:
                pending = [c for c in _children(node) if id(c) not in done]
                if pending:
                    stack += [node, *pending]
                    continue
                out = build(node, [done[id(c)] for c in _children(node)])
            done[id(node)] = out
        return done[id(root)]

    def load(self, ast):
        """The graph's node for a parsed AST."""
        def build(node, args):
            if isinstance(node, Num):
                return self.num(node.value)
            if isinstance(node, Var):
                return self.var(node.name)
            if isinstance(node, Binary):
                return getattr(self, _METHODS[node.op])(*args)
            return self.call(node.fn, *args)
        return self._post_order(ast, {}, build)

    def diff(self, root, name):
        """d root / d name."""
        return self._post_order(
            root, self._derivatives.setdefault(name, {}), self._chain_rule,
            lambda node: None if name in self._free[id(node)] else self.zero)

    def _chain_rule(self, node, d):
        """The derivative of `node`, given those of its children."""
        if isinstance(node, Var):
            return self.one
        if isinstance(node, Call):
            return self.mul(_DERIVATIVES[node.fn](self, node.arg, node), d[0])
        a, b, (da, db) = node.left, node.right, d
        if node.op in "+-":
            return getattr(self, _METHODS[node.op])(da, db)
        if node.op == "*":
            return self.add(self.mul(da, b), self.mul(a, db))
        if node.op == "/":  # (a/b)' = (a' - (a/b) b') / b
            return self.div(self.sub(da, self.mul(node, db)), b)
        if type(b) is Num:
            return self.mul(self.mul(b, self.pow(a, self.num(b.value - 1))),
                            da)
        # (a^b)' = a^b (b' log(a) + b a' / a)
        return self.mul(node, self.add(self.mul(db, self.call("log", a)),
                                       self.div(self.mul(b, da), a)))

    def inverse(self, matrix):
        """The inverse of a square matrix of nodes by Gauss-Jordan
        elimination; no pivoting, as for a positive-definite matrix."""
        n = len(matrix)
        rows = [[*row, *(self.one if i == j else self.zero for j in range(n))]
                for i, row in enumerate(matrix)]
        for col in range(n):
            pivot = rows[col][col]
            rows[col] = [self.div(a, pivot) for a in rows[col]]
            for i in set(range(n)) - {col}:
                rows[i] = [self.sub(a, self.mul(rows[i][col], b))
                           for a, b in zip(rows[i], rows[col])]
        return [row[n:] for row in rows]
