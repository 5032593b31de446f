import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from folijet.atlas import load_atlas_file
from folijet.dynamics import SemiSprayField
from folijet.errors import DomainError, ShapeError
from folijet.expr import FUNCTIONS, parse
from folijet.jets import sample_points
from folijet.riemann import lift_lagrangian
from folijet.scalars import (
    KEY_CACHE,
    PRODUCT_CHUNK,
    UNARY_FUNCTIONS,
    Series,
    Space,
    _exp_coefficients,
    _group_monomials,
    _group_table,
    _log_coefficients,
    _power_coefficients,
    _sqrt_coefficients,
    broadcast,
    cos,
    exp,
    log,
    power,
    second_order,
    sin,
    space,
    sqrt,
    tan,
)
from conftest import ATLAS_DIR
from oracles import (
    central_difference,
    central_hessian,
    convolve_series,
    full_space_split,
    full_space_spray_jacobian,
    group_table_from_exponent_sums,
    sample_major_compose,
    sample_major_product,
    sympy_series_coeffs,
)

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False)

# every space the package seeds, at small sizes
SPACES = [((1, 4),), ((3, 1),), ((3, 2),), ((1, 2), (3, 1)),
          ((3, 2), (3, 1)), ((2, 2),) * 3]


def taylor(coeffs):
    return Series(space(((1, len(coeffs) - 1),)), coeffs)


@given(st.lists(coeff, min_size=1, max_size=6),
       st.lists(coeff, min_size=1, max_size=6))
def test_taylor_product_matches_convolution(a, b):
    n = min(len(a), len(b))
    got = (taylor(a[:n]) * taylor(b[:n])).coeffs
    want = convolve_series(a[:n], b[:n])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@given(st.lists(coeff, min_size=1, max_size=5))
def test_taylor_add_sub_roundtrip(a):
    x = taylor(a)
    y = taylor([c + 1 for c in a])
    back = (x + y) - y
    assert np.allclose(back.coeffs, x.coeffs, atol=1e-12)


@pytest.mark.parametrize("fn_name,fn", [
    ("exp", exp), ("sin", sin), ("cos", cos), ("tan", tan),
])
def test_taylor_functions_match_sympy_series(fn_name, fn):
    coeffs = (0.3, 1.2, -0.7, 0.4, 0.05)
    got = fn(taylor(coeffs)).coeffs
    want = sympy_series_coeffs(fn_name, coeffs)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("fn_name,fn", [("log", log), ("sqrt", sqrt)])
def test_taylor_positive_base_functions(fn_name, fn):
    coeffs = (1.7, 0.9, -0.4, 0.2)
    got = fn(taylor(coeffs)).coeffs
    want = sympy_series_coeffs(fn_name, coeffs)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_taylor_order_mismatch():
    with pytest.raises(ShapeError):
        taylor((1.0, 2.0)) * taylor((1.0, 2.0, 3.0))
    with pytest.raises(ShapeError):
        Series(space(((2, 1),)), [1.0, 2.0])


def test_log_negative_raises():
    with pytest.raises(DomainError):
        log(taylor((-1.0, 1.0)))


def test_taylor_variable_derivative_of_composite():
    x = space(((1, 4),)).seed(2.0, 0)
    out = exp(sin(x) * x)
    f = lambda v: math.exp(math.sin(v) * v)  # noqa: E731
    h = 1e-5
    first = (f(2.0 + h) - f(2.0 - h)) / (2 * h)
    assert out.coeffs[0] == pytest.approx(f(2.0), rel=1e-12)
    assert out.coeffs[1] == pytest.approx(first, rel=1e-6)


def test_dual_gradient_matches_finite_differences():
    def f(v):
        return math.sin(v[0]) * v[1] ** 2 + math.exp(v[0] * v[1])

    x0 = np.array([0.4, 1.3])
    sp2 = space(((2, 1),))
    a, b = sp2.seed(x0[0], 0), sp2.seed(x0[1], 1)
    out = sin(a) * b * b + exp(a * b)
    want = central_difference(lambda v: f(v), x0)
    assert np.allclose(out.coeffs[1:], want, rtol=1e-7)


def test_dual_quad_hessian_matches_finite_differences():
    def f(v):
        return math.log(v[0] + 2.0) * v[1] ** 3 + v[0] * v[1]

    x0 = np.array([0.5, 0.8])
    sp2 = space(((2, 2),))
    a, b = sp2.seed(x0[0], 0), sp2.seed(x0[1], 1)
    out = log(a + 2.0) * b * b * b + a * b
    want = central_hessian(f, x0)
    assert np.allclose(np.array(second_order(out.coeffs, 2)[2]), want,
                       atol=1e-5)


def test_power_non_integer_requires_positive_base():
    with pytest.raises(DomainError):
        power(taylor((-2.0, 1.0)), 0.5)


def test_nested_dual_in_taylor_coefficients():
    # Taylor coefficients carrying first partials: d/dy of (x + y t)^2
    sp2 = space(((1, 1), (1, 1)))
    x = Series(sp2, [2.0, 0.0, 0.0, 0.0])
    y = sp2.seed(3.0, 1)  # the t coefficient, seeded
    t = sp2.seed(0.0, 0)
    series = (x + y * t) * (x + y * t)
    # monomials (t^a d^b) in order 1, d, t, t d
    assert series.coeffs[0] == pytest.approx(4.0)
    assert series.coeffs[2] == pytest.approx(12.0)
    assert series.coeffs[3] == pytest.approx(4.0)


def test_non_finite_derivative_raises():
    # the value is finite, but the derivative of x^-3 overflows at 1e-80
    x = space(((1, 1),)).seed(1e-80, 0)
    with pytest.raises(DomainError):
        parse("x1^(-3) - x1^(-3)").eval({"x1": x})
    with pytest.raises(DomainError):
        Series(space(((2, 1),)), [1.0, np.inf, 0.0])
    with pytest.raises(DomainError):
        Series(space(((2, 1),)), [1.0, 0.0, np.nan]) * 2.0


@pytest.mark.parametrize("groups", SPACES)
def test_product_table_matches_monomial_loop(groups):
    sp_ = space(groups)
    exponents = [tuple(row) for row in sp_.exponents.tolist()]
    caps = [cap for count, cap in groups for _ in range(count)]
    bounds = [(sum(c for c, _ in groups[:g]), count, cap)
              for g, (count, cap) in enumerate(groups)]

    def fits(e):
        return all(sum(e[s:s + c]) <= cap for s, c, cap in bounds)

    assert len(caps) == len(exponents[0])
    assert exponents[0] == (0,) * len(caps)
    assert len(set(exponents)) == sp_.size == math.prod(
        math.comb(count + cap, cap) for count, cap in groups)
    assert all(fits(e) for e in exponents)
    # the reference: a literal double loop over monomial pairs
    index_of = {e: m for m, e in enumerate(exponents)}
    want = set()
    for a, b in product(range(sp_.size), repeat=2):
        joined = tuple(x + y for x, y in zip(exponents[a], exponents[b]))
        if fits(joined):
            want.add((a, b, index_of[joined]))
    i, j, k = sp_.table
    assert set(zip(i.tolist(), j.tolist(), k.tolist())) == want
    assert len(i) == len(want)


@pytest.mark.parametrize("cap", range(4))
@pytest.mark.parametrize("count", range(1, 7))
def test_group_table_is_the_exponent_sum_table(count, cap):
    # the same entries in the same order, so every product sums alike
    exponents = _group_monomials(count, cap)
    got = _group_table(exponents, cap)
    want = group_table_from_exponent_sums(exponents, cap)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_one_large_cap_3_group_builds_in_little_memory():
    # pairs x variables exponent sums would take about 80 MB here
    tracemalloc.start()
    try:
        sp_ = Space(((15, 3),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sp_.size, len(sp_.table[0])) == (816, 5456)
    assert peak < 10e6


LINEAR_SPACES = [(((3, 2), (3, 1)), (0, 1)),
                 (((6, 2), (6, 1)), (0, 1, 2, 3)),
                 (((2, 2), (1, 3), (2, 1)), (1, 2, 3))]


@pytest.mark.parametrize("batch", [None, 9])
@pytest.mark.parametrize("groups,linear", LINEAR_SPACES)
def test_linear_space_computes_its_monomials_as_the_whole_space(
        groups, linear, batch):
    # kept monomials: bit for bit the whole space's coefficients, as only
    # kept monomials divide them; dropped ones: zero after any product
    whole, sp_ = space(groups), space(groups, linear)
    kept = sp_.exponents[:, list(linear)].sum(axis=1) <= 1
    assert 1 < kept.sum() < sp_.size
    assert len(sp_.table[0]) < len(whole.table[0])
    rng = np.random.default_rng(len(sp_.table[0]))
    shape = (sp_.size,) if batch is None else (batch, sp_.size)
    a, b = rng.uniform(0.5, 2.0, (2,) + shape)
    for f in (lambda x, y: x * y, lambda x, y: exp(x) / y,
              lambda x, y: log(x) * y ** 3 - sin(y)):
        got = f(Series(sp_, a), Series(sp_, b)).coeffs
        want = f(Series(whole, a), Series(whole, b)).coeffs
        assert np.array_equal(got[..., kept], want[..., kept])
        assert not got[..., ~kept].any()


@pytest.mark.parametrize("name", sorted(FUNCTIONS) + [
    "^3", "^-2", "^0.7", "^-1.5"])
def test_coefficients_are_scaled_partials(name):
    # u = a + w . z over ((2, 2), (1, 1)): the coefficient of z^m is
    # d^m f(a + w . z) / m! at z = 0
    sp_ = space(((2, 2), (1, 1)))
    a, w = 0.6, (1.0, -0.5, 0.25)
    u = sp_.seed(a)
    for v, wv in enumerate(w):
        u = u + wv * sp_.seed(0.0, v)
    z = sp.symbols("z0:3")
    arg = sp.Float(a, 30) + sum(sp.Float(wv, 30) * zv for wv, zv in zip(w, z))
    if name.startswith("^"):
        e = float(name[1:])
        got = u ** e
        f = arg ** (int(e) if e.is_integer() else sp.Float(e, 30))
    else:
        got = UNARY_FUNCTIONS[name](u)
        f = -arg if name == "neg" else getattr(sp, name)(arg)
    for index, powers in enumerate(sp_.exponents.tolist()):
        d = sp.diff(f, *[(zv, k) for zv, k in zip(z, powers) if k]) \
            if any(powers) else f
        scale = math.prod(math.factorial(k) for k in powers)
        want = float(d.subs({zv: 0 for zv in z}).evalf(30)) / scale
        assert got.coeffs[index] == pytest.approx(want, rel=1e-12, abs=1e-15)


# -- batches ----------------------------------------------------------------


@pytest.mark.parametrize("groups", SPACES)
def test_batched_product_is_each_samples_product(groups):
    # 1, 9 and 150 samples: one chunk of the product or several
    sp_ = space(groups)
    rng = np.random.default_rng(len(sp_.table[0]))
    for batch in (1, 9, 150):
        a, b = rng.standard_normal((2, batch, sp_.size))
        got = (Series(sp_, a) * Series(sp_, b)).coeffs
        want = [(Series(sp_, x) * Series(sp_, y)).coeffs
                for x, y in zip(a, b)]
        assert np.array_equal(got, want)


KERNEL_SPACES = [space(groups) for groups in SPACES] + [
    space(groups, linear) for groups, linear in LINEAR_SPACES]

# each function of a batch with the Taylor coefficients it composes
COMPOSED = {
    "exp": (exp, _exp_coefficients),
    "log": (log, _log_coefficients),
    "sqrt": (sqrt, _sqrt_coefficients),
    "^0.7": (lambda x: x ** 0.7, lambda a0, D: _power_coefficients(
        a0, 0.7, np.power(a0, 0.7), D)),
    "reciprocal": (lambda x: 1.0 / x, lambda a0, D: _power_coefficients(
        a0, -1.0, 1.0 / a0, D)),
}


@pytest.mark.parametrize("sp_", KERNEL_SPACES, ids=repr)
def test_entry_major_kernel_is_the_sample_major_kernel(sp_):
    # bit for bit, on one chunk of the product, on the largest batch that
    # fits one chunk and on one sample more
    rng = np.random.default_rng(len(sp_.table[0]))
    step = PRODUCT_CHUNK // len(sp_.table[0])
    for batch in (1, 9, step, step + 1):
        a, b = rng.uniform(0.5, 2.0, (2, batch, sp_.size))
        for x, y in ((a, b), (b[0], a), (a, b[0])):
            got = (Series(sp_, x) * Series(sp_, y)).coeffs
            assert np.array_equal(got, sample_major_product(sp_, x, y))
        for fn, coefficients in COMPOSED.values():
            f = coefficients(a[:, 0], sp_.degree)
            assert np.array_equal(fn(Series(sp_, a)).coeffs,
                                  sample_major_compose(sp_, a, f))


def test_product_keys_stay_bounded():
    # a product of more samples than a chunk holds keys its full chunks and
    # its remainder, so both stay; a process that runs many sample counts
    # (as this suite does) keeps only the latest KEY_CACHE sizes' keys,
    # each at most one chunk of the product
    sp_ = Space(((3, 2), (3, 1)))
    rng = np.random.default_rng(0)
    for batch in range(1, 61):
        a = Series(sp_, rng.uniform(0.5, 2.0, (batch, sp_.size)))
        a * a
    assert list(sp_._product_keys) == list(range(61 - KEY_CACHE, 61))
    assert KEY_CACHE <= 2
    held = sum(keys.nbytes for keys in sp_._product_keys.values())
    assert held <= KEY_CACHE * PRODUCT_CHUNK * 8
    step = PRODUCT_CHUNK // len(sp_.table[0])
    a = Series(sp_, rng.uniform(0.5, 2.0, (2 * step + 3, sp_.size)))
    a * a
    assert sorted(sp_._product_keys) == [3, step]


def test_batch_errors_name_the_first_failing_sample():
    with pytest.raises(DomainError, match=r"log of nonpositive value -1.0 "
                                          r"\(sample 2\)"):
        log(np.array([1.0, 2.0, -1.0, -3.0]))
    sp_ = space(((1, 2),))
    coeffs = np.ones((4, 3))
    coeffs[1, 0] = 0.0
    with pytest.raises(DomainError, match=r"zero value \(sample 1\)"):
        1.0 / Series(sp_, coeffs)
    coeffs[1, 0], coeffs[3, 2] = 1.0, np.inf
    with pytest.raises(DomainError, match=r"coefficient \(sample 3\)"):
        Series(sp_, coeffs)
    with pytest.raises(DomainError, match=r"overflows \(sample 0\)"):
        exp(Series(sp_, [[1000.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    # a float batch to a plain exponent: one power, searched only on failure
    for base, e, message in [
            ([1.0, 0.0, 2.0], -2, r"negative power of zero \(sample 1\)"),
            ([1.0, 4.0, -1.0], 0.5,
             r"non-integer power of nonpositive base \(sample 2\)"),
            ([0.0, 4.0], 0.5,
             r"non-integer power of nonpositive base \(sample 0\)"),
            ([3.0, 1e200], 2, r"1e\+200\^2.0 overflows \(sample 1\)")]:
        with pytest.raises(DomainError, match=message):
            power(np.array(base), e)
    got = power(np.array([2.0, np.nan]), 2)
    assert got[0] == 4.0 and np.isnan(got[1])
    # a plain exponent gives the bits of the general path with the exponent
    # broadcast over the batch at stride 0; numpy runs its square,
    # reciprocal and sqrt loops for 2, -1 and 0.5 in both, which differ
    # from its general power loop (np.full) by at most one ulp
    rng = np.random.default_rng(5)
    signed = rng.standard_normal(1000) * np.logspace(-3, 3, 1000)
    for e, base in [(2, signed), (3, signed), (-1, signed),
                    (0.5, np.abs(signed)), (-4 / 3, np.abs(signed))]:
        got = power(base, e)
        assert np.array_equal(got, power(base, np.broadcast_to(
            float(e), base.shape)))
        general = power(base, np.full(len(base), float(e)))
        assert np.all(np.abs(got - general) <= np.spacing(np.abs(general)))


def test_per_sample_exponent_is_each_samples_own_power():
    # a batch to a batch of exponents: each sample comes out as that
    # sample alone to its own exponent, bit for bit
    sp_ = space(((2, 2),))
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((9, sp_.size))
    coeffs[:, 0] = [0.5, 2.0, 3.5, -1.5, -2.0, 0.0, 1.7, 4.0, -0.3]
    e = np.array([1.5, -0.5, 2.0, 3.0, -2.0, 2.0, 1.5, 0.25, 1.0])
    got = (Series(sp_, coeffs) ** e).coeffs
    for s in range(len(e)):
        own = Series(sp_, coeffs[s:s + 1]) ** float(e[s])
        assert np.array_equal(got[s], own.coeffs[0]), s
    # an unbatched base to a batch of exponents
    x = space(((1, 2),)).seed(2.0, 0)
    for e in ([0.5, 1.5], [2.0, 0.5], [2.0, 3.0]):
        got = (x ** np.array(e)).coeffs
        for s in range(2):
            own = broadcast(x, 1) ** e[s]
            assert np.array_equal(got[s], own.coeffs[0]), (e, s)
    # an error names the failing sample of the whole batch
    env = {"x1": np.array([0.5, 1.5, 2.5]),
           "y1_1": space(((1, 1),)).seed(np.array([3.0, 4.0, 1.0]), 0)}
    with pytest.raises(DomainError, match=r"nonpositive base \(sample 2\)"):
        parse("(y1_1 - 2)^x1").eval(env)
    # ... also when a later pass fails on an earlier sample: the passes
    # run non-integer exponents first, then the integers in rising order
    one = space(((1, 1),))
    for bases, e, expected in [
            ([-1.0, 0.0], [0.5, -1.0], r"nonpositive base \(sample 0\)"),
            ([0.0, -1.0], [-1.0, 0.5], r"zero value \(sample 0\)"),
            ([0.0, 0.0], [-1.0, -2.0], r"zero value \(sample 0\)")]:
        with pytest.raises(DomainError, match=expected):
            Series(one, [[b, 1.0] for b in bases]) ** np.array(e)
    # a NaN exponent fails on its own sample, not on the others' 1 ** NaN
    with pytest.raises(DomainError, match=r"\(sample 2\)"):
        Series(sp_, coeffs[:3] ** 2) ** np.array([2.0, 0.5, np.nan])
    # ... and before a later sample's nonpositive base or overflow: each
    # sample meets its checks in its own order
    for bases, e, expected in [
            ([2.0, -1.0], [np.nan, 0.5], r"^non-finite derivative .*0\)$"),
            ([2.0, -1.0], [np.inf, 0.5], r"^non-finite derivative .*0\)$"),
            ([2.0, 1e300], [np.nan, 1.5], r"^non-finite derivative .*0\)$"),
            ([1e300, -1.0], [1.5, 0.5], r"^1e\+300\^1.5 overflows .*0\)$")]:
        with pytest.raises(DomainError, match=expected):
            Series(one, [[b, 1.0] for b in bases]) ** np.array(e)


@pytest.mark.parametrize("e", [1000.0, np.array([1000.0] * 4)],
                         ids=["float", "per-sample"])
def test_integer_power_names_first_sample_that_fails_alone(e):
    # squaring overflows sample 2 first, but alone sample 0 passes and
    # sample 1 is the first that fails
    x = Series(space(((1, 2),)),
               [[2.0, 1.0, 0.0], [3.0, 1.0, 0.0], [1e300, 1.0, 0.0],
                [1e300, 1.0, 0.0]])
    # the overflowing squares warn before the power raises
    with pytest.warns(RuntimeWarning), \
            pytest.raises(DomainError, match=r"\(sample 1\)$"):
        x ** e


@pytest.mark.parametrize("q", [1, 2, 3])
def test_batched_solve_matches_each_sample_alone(q):
    from folijet.linalg import solve

    rng = np.random.default_rng(q)
    sp_ = space(((2, 1),))
    a = rng.uniform(-2.0, 2.0, (q, q, 6))
    a[0, 0, 1::2] *= 1e-3  # every other sample pivots away from row 0
    b = rng.uniform(-1.0, 1.0, (q, 6, sp_.size))
    batch = solve([[a[i, j] for j in range(q)] for i in range(q)],
                  [Series(sp_, b[i]) for i in range(q)])
    for s in range(6):
        alone = solve([[float(a[i, j, s]) for j in range(q)]
                       for i in range(q)],
                      [Series(sp_, b[i, s]) for i in range(q)])
        for i in range(q):
            assert np.array_equal(batch[i].coeffs[s], alone[i].coeffs)


def _solve_entry(rng, sp_, batch, series):
    """A random float or series in [-1, 1], or a batch of either."""
    shape = () if batch is None else (batch,)
    if series:
        return Series(sp_, rng.uniform(-1.0, 1.0, shape + (sp_.size,)))
    values = rng.uniform(-1.0, 1.0, shape)
    return values if batch else float(values)


@pytest.mark.parametrize("series_a", [False, True],
                         ids=["float-a", "series-a"])
@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("groups", [((2, 1),), ((1, 4),), ((2, 2), (2, 2))])
def test_solve_leaves_no_residual(groups, q, batch, series_a):
    # a X - b vanishes in every coefficient, whatever computed X: float a
    # with series b, or series a with float b; q + 1 on the diagonal keeps
    # a well conditioned
    from folijet.linalg import solve

    rng = np.random.default_rng([q, batch or 0, int(series_a), len(groups)])
    sp_ = space(groups)
    a = [[_solve_entry(rng, sp_, batch, series_a) + (q + 1.0) * (i == k)
          for k in range(q)] for i in range(q)]
    b = [_solve_entry(rng, sp_, batch, not series_a) for _ in range(q)]
    X = solve(a, b)
    assert len(X) == q
    largest = max(np.abs(getattr(x, "coeffs", x)).max()
                  for x in [*sum(a, []), *b])
    for i in range(q):
        residual = sum(a[i][k] * X[k] for k in range(q)) - b[i]
        assert np.abs(residual.coeffs).max() <= 1e-13 * largest


def test_solve_names_the_first_singular_sample():
    from folijet.errors import SingularHessian
    from folijet.linalg import solve

    sp_ = space(((2, 1),))
    coeffs = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 2, 7, sp_.size))
    coeffs[:, :, 3, 0] = 1.0  # the values of sample 3 have rank one
    a = [[Series(sp_, coeffs[i, k]) for k in range(2)] for i in range(2)]
    with pytest.raises(SingularHessian, match=r"\(sample 3\)$"):
        solve(a, [1.0, 2.0])


# -- parts over the space of the other groups ---------------------------------

THREE_GROUPS = ((2, 2), (1, 3), (2, 1))


def _random_series(groups, batch, seed):
    sp_ = space(groups)
    shape = (sp_.size,) if batch is None else (batch, sp_.size)
    return Series(sp_, np.random.default_rng(seed).standard_normal(shape))


@pytest.mark.parametrize("batch", [None, 5])
@pytest.mark.parametrize("group", range(len(THREE_GROUPS)))
def test_within_after_split_is_the_full_space_part(group, batch):
    y = _random_series(THREE_GROUPS, batch, group)
    rest = space(THREE_GROUPS[:group] + THREE_GROUPS[group + 1:])
    parts = y.split(group)
    want = full_space_split(y, group)
    assert len(parts) == len(want) == y.space.shape[group]
    for part, full in zip(parts, want):
        assert part.space is rest
        assert part.batch == batch
        lifted = part.within(y.space, group)
        assert lifted.space is y.space
        assert np.array_equal(lifted.coeffs, full.coeffs)
    with pytest.raises(ShapeError):
        parts[0].within(y.space, (group + 1) % len(THREE_GROUPS))


@pytest.mark.parametrize("batch", [None, 5])
@pytest.mark.parametrize("group", range(len(THREE_GROUPS)))
def test_sub_space_product_is_the_degree_zero_slice(group, batch):
    a = _random_series(THREE_GROUPS, batch, 10 + group).split(group)
    b = _random_series(THREE_GROUPS, batch, 20 + group).split(group)
    for x, y in ((a[0], b[0]), (a[1], b[-1])):
        full = (x.within(space(THREE_GROUPS), group)
                * y.within(space(THREE_GROUPS), group))
        zero, *others = full.split(group)
        assert np.array_equal((x * y).coeffs, zero.coeffs)
        assert not any(np.any(p.coeffs) for p in others)


def test_split_of_a_linear_space_splits_its_coefficients():
    # the parts keep no `linear`: the same coefficients over the whole space
    sp_ = space(THREE_GROUPS, (1, 2, 3))  # x1 of group 0, group 1, z0
    coeffs = np.random.default_rng(3).standard_normal(sp_.size)
    y, whole = Series(sp_, coeffs), Series(space(THREE_GROUPS), coeffs)
    for group in range(3):
        for part, want in zip(y.split(group), whole.split(group)):
            assert part.space is want.space
            assert np.array_equal(part.coeffs, want.coeffs)
        assert y.split(group)[0].within(sp_, group).space is sp_


def _shipped_metrics():
    for path in sorted(ATLAS_DIR.glob("*.json")):
        atlas = load_atlas_file(path)
        for name, family in atlas.metrics.items():
            for chart, fld in family.items():
                yield pytest.param(
                    fld, atlas.charts[chart].domain[atlas.p:],
                    id=f"{path.stem}-{name}-{chart}")


@pytest.mark.parametrize("batch", [None, 25])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("fld,box", _shipped_metrics())
def test_spray_jacobian_matches_the_full_space_algebra(fld, box, r, batch):
    L = lift_lagrangian(fld, r)
    rng = np.random.default_rng(r)
    base, jets = sample_points(rng, box, batch or 1, r, fld.qdim)
    got = SemiSprayField.from_lagrangian(L).jacobian_at(base, jets)
    assert got.shape == base.shape[:-1] + (fld.qdim, (r + 1) * fld.qdim)
    assert np.array_equal(got, full_space_spray_jacobian(L, base, jets))
