import copy
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folijet
from folijet import scalars
from folijet.errors import (
    DomainError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownFunction,
)
from folijet.expr import (
    CONST,
    CONSTANTS,
    FUNCTIONS,
    LOAD,
    VARIABLE_NAME,
    Binary,
    Call,
    ExprProgram,
    Graph,
    Num,
    Var,
    coordinate_names,
    is_variable_name,
    parse,
)
from folijet.riemann import lift_lagrangian
from folijet.scalars import Series, space
from oracles import collect_variables, eval_ast, eval_program, same_tree


def test_parse_structure():
    prog = parse("sin(x1)^2 + 1")
    ast = prog.ast
    assert isinstance(ast, Binary) and ast.op == "+"
    assert isinstance(ast.left, Binary) and ast.left.op == "^"
    assert isinstance(ast.left.left, Call) and ast.left.left.fn == "sin"
    assert isinstance(ast.left.left.arg, Var)
    assert isinstance(ast.right, Num)


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 * (")
    assert err.value.column == 7


def test_free_variables():
    assert parse("y2_1 - 3*y1_1^2").free_variables() == {"y2_1", "y1_1"}
    assert parse("x1*y1_2").free_variables() == {"x1", "y1_2"}
    assert parse("3.5").free_variables() == set()
    assert parse("u1 + x1").free_variables() == {"u1", "x1"}
    assert parse("p_1^2 + p_2^2").free_variables() == {"p_1", "p_2"}


def test_variable_name_grammar():
    for good in ("x1", "x12", "u3", "y1_1", "y10_2", "p_1"):
        assert is_variable_name(good)
    for bad in ("x0", "y0_1", "y1_0", "p1", "xy", "foo"):
        assert not is_variable_name(bad)


def test_coordinate_names_have_one_owner():
    names = coordinate_names(2, 2, 1)
    assert names == ["u1", "x1", "x2", "y1_1", "y1_2", "y2_1", "y2_2"]
    assert all(VARIABLE_NAME.match(name) for name in names)
    # no other module formats a coordinate name
    spelled = re.compile(r'f"[ux]\{|f"y\{[^}]*\}_')
    package = pathlib.Path(folijet.__file__).parent
    owners = {path.name for path in package.glob("*.py")
              if spelled.search(path.read_text(encoding="utf-8"))}
    assert owners <= {"expr.py"}


def test_eval_reals():
    assert parse("x1 + x2").eval({"x1": 2.0, "x2": 3.0}) == 5.0
    assert parse("2^3^2").eval({}) == 512.0  # right-associative
    # unary minus binds tighter than ^: -x1^2 means (-x1)^2
    assert parse("-x1^2").eval({"x1": 3.0}) == 9.0
    assert parse("-(x1^2)").eval({"x1": 3.0}) == -9.0


def test_eval_taylor_cubic():
    out = parse("x1^3").eval({"x1": space(((1, 3),)).seed(1.0, 0)})
    assert np.allclose(out.coeffs, (1.0, 3.0, 3.0, 1.0))


def test_eval_errors():
    with pytest.raises(UnboundVariable):
        parse("x1 + x2").eval({"x1": 1.0})
    with pytest.raises(DomainError):
        parse("log(x1)").eval({"x1": -1.0})
    with pytest.raises(UnknownFunction):
        parse("sinh(x1)")


def test_print_parse_idempotence_examples():
    for text in ("sin(x1)^2 + 1", "-x1^2 * (x2 - 3) / 7",
                 "exp(y1_1) - sqrt(x1 + 2)", "1/(9*x1^(4/3))",
                 "2^3^2", "-(x1 + x2)", "pi*x1 - e", "neg(x1) + 1"):
        prog = parse(text)
        again = parse(prog.to_text())
        assert same_tree(again.ast, prog.ast)
        env = {name: 1.3 for name in prog.free_variables()}
        assert again.eval(env) == pytest.approx(prog.eval(env), rel=1e-14)


@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=0.2, max_value=4.0))
def test_eval_kinds_agree(a, b):
    prog = parse("x1^2 * sin(x2) + exp(x1/x2) - log(x1)")
    env_f = {"x1": a, "x2": b}
    plain = prog.eval(env_f)
    taylor = prog.eval({k: space(((1, 0),)).seed(v)
                        for k, v in env_f.items()})
    quad = prog.eval({k: space(((2, 2),)).seed(v)
                      for k, v in env_f.items()})
    assert taylor.coeffs[0] == pytest.approx(plain, rel=1e-14)
    assert quad.value == pytest.approx(plain, rel=1e-14)


def test_non_integer_power_requires_positive_base():
    prog = parse("x1^(1/3)")
    assert prog.eval({"x1": 8.0}) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        prog.eval({"x1": -8.0})


# -- the compiled tape against the recursive oracle ---------------------------

_NUMBERS = [0.5, 2.0, -1.5, 0.0, -0.0]


@st.composite
def shared_asts(draw):
    """Random ASTs built from a pool, so subtrees are reused on purpose:
    by the same object, and by structurally equal copies."""
    pool = [Var("x1"), Var("x2"), Num(draw(st.sampled_from(_NUMBERS))),
            Num(CONSTANTS[draw(st.sampled_from(["pi", "e"]))])]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    def unary(arg):
        fn = draw(st.sampled_from(["-"] + sorted(FUNCTIONS)))
        return Call("neg" if fn == "-" else fn, arg)

    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ["unary", "binary", "twin", "int_power", "power", "copy"]))
        if kind == "unary":
            node = unary(pick())
        elif kind == "binary":
            node = Binary(draw(st.sampled_from("+-*/")), pick(), pick())
        elif kind == "twin":
            # two operations on one operand must not share a slot
            arg = pick()
            node = Binary(draw(st.sampled_from("+-*/")), unary(arg),
                          unary(arg))
        elif kind == "int_power":
            node = Binary("^", pick(), Num(float(draw(st.integers(-3, 4)))))
        elif kind == "power":
            exponent = draw(st.sampled_from(
                [Num(0.5), Num(-1.5), Num(1.0 / 3.0), Var("x2")]))
            node = Binary("^", pick(), exponent)
        else:
            node = copy.deepcopy(pick())
        pool.append(node)
    # sum every built node, so each one reaches the result
    total = pool[4]
    for node in pool[5:]:
        total = Binary("+", total, node)
    return total


# the series spaces the package seeds: Taylor, gradient, Hessian,
# Taylor over gradient, Hessian over gradient, and a two-stage chain
SERIES_KINDS = {
    "taylor": ((1, 2),),
    "dual": ((2, 1),),
    "quad": ((2, 2),),
    "taylor_dual": ((1, 2), (2, 1)),
    "quad_dual": ((2, 2), (2, 1)),
    "chain": ((2, 2), (2, 2)),
}


def _env(kind, a, b):
    if kind == "float":
        return {"x1": a, "x2": b}
    if kind == "taylor":
        sp_ = space(SERIES_KINDS[kind])
        return {"x1": Series(sp_, [a, 1.0, -0.5]),
                "x2": Series(sp_, [b, 0.25, 0.0])}
    # x1 and x2 are the first and the second variable of every group
    # (both the first in a one-variable group)
    sp_ = space(SERIES_KINDS[kind])
    firsts = np.cumsum([0] + [count for count, _ in sp_.groups[:-1]])
    seconds = [f + min(1, count - 1)
               for f, (count, _) in zip(firsts, sp_.groups)]
    return {"x1": sp_.seed(a, *firsts), "x2": sp_.seed(b, *seconds)}


def _parts(value):
    if isinstance(value, Series):
        return [value.coeffs]
    return [np.asarray(value)]


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return fn(), None
    except Exception as err:  # the type is what is compared
        return None, type(err)


@settings(max_examples=300, deadline=None)
@given(shared_asts(), st.sampled_from(["float"] + sorted(SERIES_KINDS)),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_tape_matches_recursive_oracle(ast, kind, a, b):
    env = _env(kind, a, b)
    program = ExprProgram(ast, "")
    want, want_err = _outcome(lambda: eval_program(program, env))
    got, got_err = _outcome(lambda: program.eval(env))
    assert got_err is want_err
    if want_err is None:
        assert type(got) is type(want)
        # bit-identical; NaN only where the oracle has the same NaN
        for x, y in zip(_parts(got), _parts(want), strict=True):
            assert np.array_equal(x, y, equal_nan=True)


# -- a batch against its samples ---------------------------------------------
#
# On a batch of floats the elementary functions and ``^`` are numpy ufuncs
# where a single float calls ``math``; a series batch takes its
# elementary-function coefficients from the same ufuncs.  Measured against
# ``math`` with numpy 2.4 on x86-64, these round differently by at most
# this many units in the last place; the ufuncs left out agree exactly.
UFUNC_ULPS = {"exp": 1, "log": 1, "tan": 1, "atan": 1, "^": 1}
EXACT_UFUNCS = {"sin": (np.sin, math.sin), "cos": (np.cos, math.cos),
                "sqrt": (np.sqrt, math.sqrt)}


def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40))
def test_ufuncs_stay_within_their_ulp_bound(values):
    x = np.array(values)
    pos = np.abs(x) + 0.25
    pairs = {"exp": (np.exp(x), [math.exp(v) for v in x]),
             "log": (np.log(pos), [math.log(v) for v in pos]),
             "tan": (np.tan(x), [math.tan(v) for v in x]),
             "atan": (np.arctan(x), [math.atan(v) for v in x]),
             "^": (np.power(pos, x / 7.0),
                   [math.pow(a, b / 7.0) for a, b in zip(pos, x)])}
    assert pairs.keys() == UFUNC_ULPS.keys()
    for name, (got, want) in pairs.items():
        assert _ulps(got, np.array(want)).max() <= UFUNC_ULPS[name], name
    for name, (ufunc, fn) in EXACT_UFUNCS.items():
        arg = pos if name == "sqrt" else x
        assert np.array_equal(ufunc(arg), [fn(v) for v in arg]), name


def _uses_ufunc_ulps(node):
    """Whether an AST reaches an operation listed in UFUNC_ULPS."""
    stack = [node]
    while stack:
        n = stack.pop()
        if (isinstance(n, Call) and n.fn in UFUNC_ULPS) or \
                (isinstance(n, Binary) and n.op in UFUNC_ULPS):
            return True
        stack += [c for c in (getattr(n, "left", None),
                              getattr(n, "right", None),
                              getattr(n, "arg", None)) if c is not None]
    return False


def _batched(envs):
    """One environment holding every sample of the per-sample envs."""
    out = {}
    for name, first in envs[0].items():
        if isinstance(first, Series):
            out[name] = Series(first.space,
                               np.stack([env[name].coeffs for env in envs]))
        else:
            out[name] = np.array([env[name] for env in envs])
    return out


def _sample(value, s):
    return value.coeffs[s] if isinstance(value, Series) else \
        np.asarray(value)[s]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shared_asts(), st.sampled_from(["float"] + sorted(SERIES_KINDS)),
       st.sampled_from([1, 2, 7]), st.data())
def test_batch_matches_per_sample_evaluation(ast, kind, batch, data):
    values = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0),
                                          st.floats(-2.0, 2.0)),
                                min_size=batch, max_size=batch))
    envs = [_env(kind, a, b) for a, b in values]
    program = ExprProgram(ast, "")
    alone = [_outcome(lambda env=env: program.eval(env)) for env in envs]
    got, got_err = _outcome(lambda: program.eval(_batched(envs)))
    failing = [s for s, (_, err) in enumerate(alone) if err is not None]
    if failing:
        # the batch stops at the first operation any sample fails, and
        # names a sample that fails there alone, with the same error; an
        # operation on values shared by every sample fails for all
        assert got_err is not None
        err = _outcome_error(lambda: program.eval(_batched(envs)))
        s = getattr(err, "sample", None)
        assert s in failing if s is not None else len(failing) == batch
        assert type(err) is alone[s or 0][1]
        return
    assert got_err is None
    exact = not _uses_ufunc_ulps(ast)
    for s, (want, _) in enumerate(alone):
        assert isinstance(got, Series) is isinstance(want, Series)
        if exact:
            assert np.array_equal(_sample(got, s), _parts(want)[0],
                                  equal_nan=True)
        else:
            # a ufunc's last-bit difference grows through later operations
            assert np.allclose(_sample(got, s), _parts(want)[0], rtol=1e-10,
                               atol=1e-12, equal_nan=True)
        # a batch of one sample is that sample, ufuncs or not
        one, _ = _outcome(lambda env=envs[s]: program.eval(_batched([env])))
        assert np.array_equal(_sample(got, s), _sample(one, 0),
                              equal_nan=True)


def _outcome_error(fn):
    try:
        with np.errstate(all="ignore"):
            fn()
    except Exception as err:  # the caller checks the type
        return err
    raise AssertionError("no error")


def test_tape_fails_at_the_first_failing_operation():
    # the walk fails at log before it looks up the unbound x2
    program = parse("log(x1) + x2")
    with pytest.raises(DomainError):
        eval_ast(program.ast, {"x1": -1.0})
    with pytest.raises(DomainError):
        program.eval({"x1": -1.0})


# -- tape shape ---------------------------------------------------------------


def _ops(program, op):
    return [ins for ins in program.tape if ins[0] is op]


def test_repeated_subexpression_gets_one_slot():
    program = parse("sin(x1)*sin(x1)")
    assert len(_ops(program, scalars.sin)) == 1
    assert len(_ops(program, LOAD)) == 1
    assert program.eval({"x1": 0.3}) == math.sin(0.3) * math.sin(0.3)


def test_signed_zeros_keep_separate_slots():
    program = ExprProgram(Binary("-", Num(-0.0), Num(0.0)), "")
    signs = sorted(math.copysign(1.0, ins[2]) for ins in _ops(program, CONST))
    assert signs == [-1.0, 1.0]
    assert math.copysign(1.0, program.eval({})) == -1.0


def test_shear2_lift_tape_is_shared(shear2_atlas):
    fld = shear2_atlas.metrics["g"]["B"]
    assert len(lift_lagrangian(fld, 2).program.tape) <= 300


def test_long_sum_compiles_without_recursion():
    ast = Num(1.0)
    for _ in range(20000):
        ast = Binary("+", ast, Binary("*", Num(0.0), Var("x1")))
    program = ExprProgram(ast, "")
    assert program.eval({"x1": 2.0}) == 1.0
    assert program.free_variables() == {"x1"}


def test_free_variables_on_shipped_atlases(atlas_dir):
    texts = []
    for path in sorted(atlas_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        for t in doc["transitions"]:
            texts += t["leaf_exprs"] + t["transverse_exprs"]
        for m in doc.get("metrics", []):
            texts += [entry for row in m["components"] for entry in row]
        texts += [lag["expr"] for lag in doc.get("lagrangians", [])]
    assert texts
    for text in texts:
        program = parse(text)
        assert program.free_variables() == collect_variables(program.ast)


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError):
        parse("(" * 2000 + "x1" + ")" * 2000)
    with pytest.raises(ExprSyntaxError):
        parse("-" * 2000 + "x1")


# -- env kind ---------------------------------------------------------------


@pytest.mark.parametrize("series_first", [True, False])
def test_literal_program_keeps_the_env_kind(series_first):
    seeded = space(((1, 2),)).seed(0.5, 0)
    items = [("y1_1", seeded), ("x1", 0.3)]
    env = dict(items if series_first else items[::-1])
    for text in ("2", "x1^2"):  # reads no series either way
        out = parse(text).eval(env)
        assert isinstance(out, Series)
        assert out.value == parse(text).eval({"x1": 0.3})
        assert out.space is seeded.space
    assert parse("2").eval({"x1": 0.3}) == 2.0


# -- expression graphs ------------------------------------------------------


def test_graph_interns_by_operand_identity():
    G = Graph()
    x, y = G.var("x1"), G.var("y1_1")
    assert G.add(x, y) is G.add(G.var("x1"), G.var("y1_1"))
    assert G.add(x, y) is not G.add(y, x)
    assert G.load(parse("sin(x1)+y1_1").ast) is G.add(G.call("sin", x), y)


def test_graph_folds_constants_and_identities():
    G = Graph()
    x = G.var("x1")
    assert G.add(G.num(2.0), G.num(3.0)) is G.num(5.0)
    assert G.load(parse("x1^(4/3)").ast).right is G.num(4.0 / 3.0)
    assert G.mul(G.one, x) is x and G.mul(x, G.zero) is G.zero
    assert G.add(G.zero, x) is x and G.sub(x, G.zero) is x
    assert G.sub(x, x) is G.zero and G.div(x, x) is G.one
    assert G.pow(x, G.one) is x and G.pow(x, G.zero) is G.one
    assert G.call("neg", G.call("neg", x)) is x
    assert G.div(G.one, G.div(G.one, x)) is x
    # a failing or overflowing fold is left to evaluation
    assert isinstance(G.pow(G.zero, G.num(-1.0)), Binary)
    assert isinstance(G.call("exp", G.num(1000.0)), Call)
    assert isinstance(G.call("log", G.num(-1.0)), Call)


def test_graph_products_have_one_normal_form():
    G = Graph()
    x, y = G.var("x1"), G.var("y1_1")
    two = G.num(2.0)
    # factor order, numeric factors and like powers do not matter
    xy2 = G.mul(G.mul(two, x), G.pow(y, two))
    assert G.mul(y, G.mul(G.mul(x, y), two)) is xy2
    assert G.mul(G.pow(x, G.num(4 / 3)), G.pow(x, G.num(-1 / 3))) is x
    assert G.div(G.mul(G.num(6.0), x), G.mul(G.num(3.0), x)) is two
    # like multiples of one product sum to one multiple
    assert G.sub(G.mul(G.num(3.0), xy2), xy2) is G.mul(two, xy2)
    assert G.add(x, x) is G.mul(two, x)


DIFF_TEXTS = ["x1^3 * y1_1 - x1/y1_1", "exp(x1*y1_1) + log(x1)",
              "sin(x1)*cos(y1_1) + tan(x1)", "sqrt(x1 + y1_1^2)",
              "atan(x1*y1_1) - -x1", "x1^y1_1 + x1^(1/3)",
              "1/(9*x1^(4/3))", "2/(3*x1) - 1/(1/x1)"]


@pytest.mark.parametrize("text", DIFF_TEXTS)
def test_graph_derivatives_match_series(text):
    G = Graph()
    node = G.load(parse(text).ast)
    at = {"x1": 0.7, "y1_1": 0.4}
    sp = space(((2, 2),))
    seeded = {name: sp.seed(v, i) for i, (name, v) in enumerate(at.items())}
    want = parse(text).eval(seeded).coeffs
    assert ExprProgram(node).eval(at) == pytest.approx(want[0], rel=1e-13)
    for i, name in enumerate(at):
        d = G.diff(node, name)
        assert G.diff(node, name) is d  # memoised
        assert ExprProgram(d).eval(at) == pytest.approx(want[1 + i],
                                                        rel=1e-12)
        # the mixed and pure second partials
        for k, other in enumerate(at):
            got = ExprProgram(G.diff(d, other)).eval(at)
            lo, hi = sorted((i, k))
            c = want[3 + {(0, 0): 0, (0, 1): 1, (1, 1): 2}[lo, hi]]
            assert got == pytest.approx(c * (2.0 if i == k else 1.0),
                                        rel=1e-12)
    assert G.diff(node, "x2") is G.zero


def test_graph_inverse_is_gauss_jordan():
    G = Graph()
    texts = [["2 + x1^2", "x1*x2/5"], ["x1*x2/5", "1 + x2^2"]]
    m = [[G.load(parse(t).ast) for t in row] for row in texts]
    inv = G.inverse(m)
    at = {"x1": 0.8, "x2": -0.3}
    got = np.array([[ExprProgram(e).eval(at) for e in row] for row in inv])
    g = np.array([[parse(t).eval(at) for t in row] for row in texts])
    assert np.allclose(got @ g, np.eye(2), atol=1e-14)


def test_graph_builds_deep_sums_without_recursion():
    G = Graph()
    ast = Num(1.0)
    for _ in range(5000):
        ast = Binary("+", ast, Binary("*", Num(0.5), Var("x1")))
    node = G.load(ast)
    d = G.diff(node, "x1")
    assert ExprProgram(d).eval({"x1": 3.0}) == pytest.approx(2500.0)


def test_graph_program_prints_its_source_when_read():
    G = Graph()
    program = ExprProgram(G.mul(G.var("x1"), G.var("x1")))
    assert "source" not in vars(program)
    assert program.source == "x1^2"
    assert parse("x1 +1").source == "x1 +1"
