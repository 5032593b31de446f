import json
from collections import Counter

import numpy as np
import pytest

from folijet import legendre
from folijet.atlas import load_atlas_file
from folijet.cli import main
from folijet.dynamics import LagrangianField
from folijet.errors import (
    DomainError,
    InvariantViolation,
    NoConvergence,
    ShapeError,
    SingularHessian,
)
from folijet.expr import ExprProgram, coordinate_names, parse
from folijet.jets import TransverseJetPoint, jet_env
from folijet.linalg import condition_number
from folijet.legendre import (
    CotangentJetPoint,
    _inverse_rows,
    _newton_top_row,
    _ray_level,
    hamiltonian_at,
    legendre_chain,
    legendre_inverse,
    legendre_map,
    pseudo_hamiltonian,
    admissibility_check,
)
from folijet.riemann import lift_lagrangian
from folijet.scalars import batch_of, columns, raise_where, space
from oracles import (admissible_draws, chain_hamiltonian_nested,
                     chain_hamiltonian_r2, hamiltonian_draws,
                     ray_levels_per_sample)


def jet_point(base, jets, chart=""):
    return TransverseJetPoint(chart, len(jets), (), tuple(base),
                              tuple(tuple(row) for row in jets))


def cotangent_point(L, pt):
    """The cotangent point (x, y^(1..r-1), p) that `legendre_map` trades
    the jet point `pt` for under L."""
    return CotangentJetPoint(pt.chart, L.order, pt.leaf, pt.base,
                             pt.jets[:-1],
                             tuple(legendre_map(L, pt.base, pt.jets)))


def lagrangian(text, order, qdim=1, **kw):
    return LagrangianField.from_program(parse(text), order=order, qdim=qdim,
                                        **kw)


# ------------------------------------------------------------ legendre map


def test_legendre_map_quadratic():
    L = lagrangian("y1_1^2", 1)
    assert legendre_map(L, [0.5], [[3.0]]).tolist() == [6.0]
    # a batch maps sample by sample
    assert legendre_map(L, [[0.5], [0.1]], [[[3.0]], [[-1.0]]]).tolist() \
        == [[6.0], [-2.0]]


def test_legendre_map_flat_lift_second_order(flat_metric):
    L = lift_lagrangian(flat_metric, 2)
    pt = jet_point([0.2], [[1.1], [0.7]])
    cp = cotangent_point(L, pt)
    assert cp.momentum[0] == pytest.approx(2 * 0.7, abs=1e-12)
    assert cp.jets == ((1.1,),)  # lower rows copied verbatim


def test_legendre_map_momentum_scales_with_top_row(exp_metric):
    # 2-homogeneous stage: scaling the top row scales the momentum linearly
    L = lift_lagrangian(exp_metric, 1)
    for lam in (0.5, 2.0, 5.0):
        p1 = legendre_map(L, [0.3], [[0.8]])[0]
        p2 = legendre_map(L, [0.3], [[lam * 0.8]])[0]
        assert p2 == pytest.approx(lam * p1, rel=1e-9)


# -------------------------------------------------------------- inversion


def test_legendre_inverse_linear_system_one_step():
    L = lagrangian("y1_1^2", 1)
    cp = CotangentJetPoint("", 1, (), (0.5,), (), (6.0,))
    point, stats = legendre_inverse(L, cp, return_stats=True)
    assert point.jets[0][0] == pytest.approx(3.0, abs=1e-12)
    assert stats["iterations"] == 1


def test_legendre_inverse_quadratic_flat_lift_one_step(flat_metric):
    L = lift_lagrangian(flat_metric, 2)
    cp = CotangentJetPoint("", 2, (), (0.2,), ((1.1,),), (-0.9,))
    point, stats = legendre_inverse(L, cp, return_stats=True)
    assert stats["iterations"] == 1
    assert legendre_map(L, point.base, point.jets)[0] == pytest.approx(
        -0.9, abs=1e-10)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_legendre_round_trip(exp_metric, r):
    L = lift_lagrangian(exp_metric, r)
    rng = np.random.default_rng(100 + r)
    for _ in range(100):
        pt = jet_point(rng.uniform(-0.5, 0.8, 1),
                       [rng.uniform(-1.5, 1.5, 1) for _ in range(r)])
        back = legendre_inverse(L, cotangent_point(L, pt))
        assert np.allclose(back.jets, pt.jets, atol=1e-9)


def test_legendre_inverse_singular_guard():
    # quartic well: hessian 12 y^2 vanishes at the zero guess
    L = lagrangian("y1_1^4", 1)
    cp = CotangentJetPoint("", 1, (), (0.5,), (), (1.0,))
    with pytest.raises(SingularHessian):
        legendre_inverse(L, cp)


def test_cotangent_point_checks_keep_their_messages():
    with pytest.raises(ShapeError, match="order must be >= 1, got 0"):
        CotangentJetPoint("", 0, (), (0.5,), (), (1.0,))
    with pytest.raises(ShapeError, match="expected 1 jet rows, got 0"):
        CotangentJetPoint("", 2, (), (0.5,), (), (1.0,))
    with pytest.raises(ShapeError, match="jet rows must match"):
        CotangentJetPoint("", 2, (), (0.5,), ((1.0, 2.0),), (1.0,))
    with pytest.raises(ShapeError, match="momentum must match"):
        CotangentJetPoint("", 1, (), (0.5,), (), (1.0, 2.0))
    for field in ("leaf", "base", "jets", "momentum"):
        args = {"leaf": (), "base": (0.5,), "jets": ((0.1,),),
                "momentum": (1.0,)}
        args[field] = ((float("nan"),),) if field == "jets" \
            else (float("nan"),)
        with pytest.raises(InvariantViolation,
                           match=f"non-finite entry in {field}"):
            CotangentJetPoint("", 2, **args)
    cp = CotangentJetPoint("", 2, [0.0], [0.5], [[1]], [2])
    assert (cp.leaf, cp.base, cp.jets, cp.momentum) == (
        (0.0,), (0.5,), ((1.0,),), (2.0,))


def test_legendre_inverse_shape_mismatch(flat_metric):
    L = lift_lagrangian(flat_metric, 2)
    cp = CotangentJetPoint("", 1, (), (0.2,), (), (1.0,))
    with pytest.raises(ShapeError):
        legendre_inverse(L, cp)


# ------------------------------------------------ newton condition guard


@pytest.mark.parametrize("q", [1, 2, 3])
def test_condition_number_matches_numpy(q):
    rng = np.random.default_rng(40 + q)
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0, (q, q))
        h = a + a.T + rng.uniform(-3.0, 3.0) * np.eye(q)
        want = np.linalg.cond(h)
        if want > 1e4:  # both lose digits as the matrix nears singular
            continue
        assert condition_number(h.tolist()) == pytest.approx(want,
                                                             rel=1e-12)


@pytest.mark.parametrize("hess", [
    [[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    [[float("nan")]], [[1.0, float("inf")], [float("inf"), 1.0]],
    [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]],
])
def test_newton_rejects_singular_or_non_finite_hessian(hess):
    q = len(hess)
    assert condition_number(hess) == np.inf

    def quad_at(top, moving):
        return 0.0, list(top), hess

    with pytest.raises(SingularHessian, match="condition estimate inf"):
        _newton_top_row(quad_at, [1.0] * q, [0.0] * q, q)


def batched_quad(derivatives, batch):
    """A one-variable batched `quad_at` from a rule giving per-sample
    gradients and Hessians, checking that every call sees the whole
    batch."""
    seen = []

    def quad_at(top, moving):
        (t,) = top
        assert t.shape == (batch,) and moving.shape == (batch,)
        assert moving.dtype == bool
        seen.append(moving.copy())
        grad, hess = derivatives(t)
        return 0.0, [grad], [[hess]]

    return quad_at, seen


def test_batched_newton_no_convergence_names_its_sample(monkeypatch):
    # sample 0 settles at once, sample 1 after one step, and sample 2
    # converges linearly (x^3 from 1) past the iteration limit
    monkeypatch.setattr(legendre, "NEWTON_MAX_ITERATIONS", 5)
    cube = np.array([0.0, 0.0, 1.0])
    quad_at, seen = batched_quad(
        lambda t: ((1.0 - cube) * t + cube * t ** 3,
                   (1.0 - cube) + 3.0 * cube * t ** 2), 3)
    target = [np.array([0.0, 0.5, 0.0])]
    with pytest.raises(NoConvergence) as err:
        _newton_top_row(quad_at, target, [np.array([0.0, 0.0, 1.0])], 1)
    assert err.value.sample == 2
    assert "(sample 2)" in str(err.value)
    assert "after 5 iterations" in str(err.value)
    # samples 0 and 1 stay frozen once stopped
    assert [m.tolist() for m in seen[:3]] == [[True] * 3,
                                              [False, True, True],
                                              [False, False, True]]


def _singular_late(t):
    """Gradients and Hessians of four samples: sample 1's Hessian reads 0
    once it has moved, and sample 3 (x^2 - 2x = -2 from 0) steps onto
    x = 1, where its Hessian 2x - 2 vanishes."""
    grad = np.array([t[0] ** 3, 2.0 * t[1], t[2] ** 3,
                     t[3] ** 2 - 2.0 * t[3]])
    hess = np.array([3.0 * t[0] ** 2, 2.0 if t[1] == 0.0 else 0.0,
                     3.0 * t[2] ** 2, 2.0 * t[3] - 2.0])
    return grad, hess


def _singular_when_stopped(t):
    """`_singular_late` with sample 3 replaced by the linear x = 3."""
    grad, hess = _singular_late(t)
    return np.r_[grad[:3], t[3]], np.r_[hess[:3], 1.0]


def test_batched_newton_singular_hessian_names_its_sample():
    guess = [np.array([0.5, 0.0, 1.0, 0.0])]
    quad_at, seen = batched_quad(_singular_late, 4)
    with pytest.raises(SingularHessian) as err:
        _newton_top_row(quad_at, [np.array([1.0, 1.0, 8.0, -2.0])], guess, 1)
    assert err.value.sample == 3
    assert "(sample 3)" in str(err.value)
    assert len(seen) > 1  # at the second step, once sample 1 stopped
    # a stopped sample's singular Hessian neither trips the guard nor
    # the solve
    quad_at, _ = batched_quad(_singular_when_stopped, 4)
    top, _, stats = _newton_top_row(
        quad_at, [np.array([1.0, 1.0, 8.0, 3.0])], guess, 1)
    assert top[0] == pytest.approx([1.0, 0.5, 2.0, 3.0], rel=1e-12)
    assert stats["iterations"][1] == 1


def test_batched_chain_and_inverse_name_the_singular_sample():
    # x1 = 0 leaves y^4, whose vertical hessian vanishes at the start
    L = lagrangian("x1*y1_1^2 + y1_1^4", 1)
    bases = np.array([[0.5], [1.0], [0.0], [2.0]])
    momenta = np.array([[0.3], [4.0], [0.3], [1.0]])
    with pytest.raises(SingularHessian, match=r"\(sample 2\)$"):
        hamiltonian_at(L, bases, np.zeros((4, 0, 1)), momenta)
    with pytest.raises(SingularHessian, match=r"\(sample 2\)$"):
        legendre_chain(L)(bases, momenta)


def test_newton_singular_errors_keep_their_text():
    # linalg.solve judges the hessian; Newton puts its stage in front
    L = lagrangian("x1*y1_1^2 + y1_1^4", 1)
    bases = np.array([[0.5], [1.0], [0.0], [2.0]])
    momenta = np.array([[0.3], [4.0], [0.3], [1.0]])
    want = "vertical hessian condition estimate inf"
    for call, text, sample in [
            (lambda: legendre_chain(L)(bases, momenta),
             f"stage 1: {want} (sample 2)", 2),
            (lambda: hamiltonian_at(L, bases, np.zeros((4, 0, 1)), momenta),
             f"{want} (sample 2)", 2),
            (lambda: legendre_chain(L)(bases[2], momenta[2]),
             f"stage 1: {want}", None)]:
        with pytest.raises(SingularHessian) as err:
            call()
        assert str(err.value) == text
        assert getattr(err.value, "sample", None) == sample


# ------------------------------------------------------ pseudo-hamiltonian


def test_pseudo_hamiltonian_quadratic():
    L = lagrangian("y1_1^2", 1)
    cp = CotangentJetPoint("", 1, (), (0.1,), (), (1.6,))
    assert pseudo_hamiltonian(L, cp).value == pytest.approx(1.6 ** 2 / 4.0,
                                                            abs=1e-12)


def test_pseudo_hamiltonian_flat_two_dim():
    L = lagrangian("y1_1^2 + y1_2^2", 1, qdim=2)
    cp = CotangentJetPoint("", 1, (), (0.1, 0.2), (), (1.0, -2.0))
    assert pseudo_hamiltonian(L, cp).value == pytest.approx(
        (1.0 + 4.0) / 4.0, abs=1e-12)


def test_pseudo_hamiltonian_two_homogeneous_in_momentum(exp_metric):
    L = lift_lagrangian(exp_metric, 1)
    for lam in (0.5, 3.0):
        h1 = pseudo_hamiltonian(
            L, CotangentJetPoint("", 1, (), (0.4,), (), (0.9,))).value
        h2 = pseudo_hamiltonian(
            L, CotangentJetPoint("", 1, (), (0.4,), (), (lam * 0.9,))).value
        assert h2 == pytest.approx(lam ** 2 * h1, rel=1e-9)


# ---------------------------------------------------------------- chain


def test_chain_flat_is_quarter_momentum_squared(flat_metric):
    for r in (1, 2, 3):
        H = legendre_chain(lift_lagrangian(flat_metric, r))
        for p in (-1.4, 0.3, 2.0):
            assert H((0.7,), (p,)) == pytest.approx(p * p / 4.0, abs=1e-12)


def test_chain_single_stage_equals_pseudo_hamiltonian(exp_metric):
    L = lift_lagrangian(exp_metric, 1)
    H = legendre_chain(L)
    for x, p in ((0.2, 1.1), (-0.4, -0.7)):
        want = pseudo_hamiltonian(
            L, CotangentJetPoint("", 1, (), (x,), (), (p,))).value
        assert H((x,), (p,)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("metric_name,r,samples", [
    ("exp", 2, 50), ("exp", 3, 10), ("wavy", 2, 50), ("wavy", 3, 10),
])
def test_chain_reduces_to_first_stage_hamiltonian(exp_metric, wavy_metric,
                                                  metric_name, r, samples):
    g = {"exp": exp_metric, "wavy": wavy_metric}[metric_name]
    L1 = lift_lagrangian(g, 1)
    H = legendre_chain(lift_lagrangian(g, r))
    rng = np.random.default_rng(200 + r)
    for _ in range(samples):
        x = float(rng.uniform(-0.5, 0.8))
        p = float(rng.uniform(-2.0, 2.0))
        want = pseudo_hamiltonian(
            L1, CotangentJetPoint("", 1, (), (x,), (), (p,))).value
        assert H((x,), (p,)) == pytest.approx(want, abs=1e-8)


NON_METRIC_Q1 = ("y2_1^2 + 0.1*y2_1^4 + y1_1^2 + 0.05*y1_1^4"
                 " + 0.3*sin(x1)*y1_1*y2_1 + x1^2*y1_1^2")
NON_METRIC_Q2 = ("y2_1^2 + y2_2^2 + 0.1*(y2_1^2 + y2_2^2)^2 + y1_1^2"
                 " + 2*y1_2^2 + 0.2*x1*y1_1*y2_2 + 0.1*cos(x2)*y1_2*y2_1"
                 " + 0.05*y1_1^4 + exp(0.1*x2)*y1_2^2")


@pytest.mark.parametrize("case", ["non_metric_q1", "cubic_lift_B",
                                  "non_metric_q2"])
def test_chain_matches_stagewise_oracle(case, atlas_dir):
    # the oracle solves each stage with sympy derivatives and mpmath
    # findroot at 30 digits; none of these lagrangians needs a metric
    if case == "non_metric_q1":
        text, q, base = NON_METRIC_Q1, 1, (0.7,)
    elif case == "non_metric_q2":
        text, q, base = NON_METRIC_Q2, 2, (0.3, -0.4)
    else:
        g = load_atlas_file(atlas_dir / "cubic.json").metrics["g"]["B"]
        text, q, base = lift_lagrangian(g, 2).program.source, 1, (1.2,)
    H = legendre_chain(lagrangian(text, 2, qdim=q))
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = tuple(rng.uniform(-1.5, 1.5, q))
        want = chain_hamiltonian_r2(text, q, base, p)
        assert H(base, p) == pytest.approx(want, rel=1e-12)


# order 3, q = 1: quartic in every row and coupled across all three, so
# the inner solutions are not polynomials of degree <= 2 in the rows below
# and the Taylor-shifted guesses handed down are not exact
NON_METRIC_R3 = ("y3_1^2 + 0.1*y3_1^4 + 0.2*cos(x1)*y2_1*y3_1"
                 " + 0.1*y1_1*y3_1 + " + NON_METRIC_Q1)


def test_nested_oracle_matches_r2_oracle():
    for p in ((0.5,), (-1.2,)):
        assert chain_hamiltonian_nested(NON_METRIC_Q1, 1, 2, (0.7,), p) \
            == pytest.approx(chain_hamiltonian_r2(NON_METRIC_Q1, 1, (0.7,), p),
                             rel=1e-14)


def test_chain_matches_nested_oracle_at_order_3():
    H = legendre_chain(lagrangian(NON_METRIC_R3, 3))
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = tuple(rng.uniform(-1.5, 1.5, 1))
        want = chain_hamiltonian_nested(NON_METRIC_R3, 1, 3, (0.7,), p)
        assert H((0.7,), p) == pytest.approx(want, rel=1e-12)


# L evaluations per chain call at r = 1..4.  On cubic chart A every lifted
# inner solution is at most quadratic in each lower row, so every
# Taylor-shifted guess settles at once and a call costs r + 1.  On the
# curved charts the guesses two or more stages down are truncated shifts
# and take one Newton step each: 2r - 1.  Exact counts, so that a stage
# that stops settling, or a return to 3^r, fails here.
CHAIN_EVALUATIONS = {
    ("cubic", "A"): [2, 3, 4, 5],
    ("cubic", "B"): [2, 3, 5, 7],
    ("shear2", "A"): [2, 3, 5, 7],
    ("shear2", "B"): [2, 3, 5, 7],
}


@pytest.mark.parametrize("atlas_name,chart", list(CHAIN_EVALUATIONS))
def test_chain_evaluation_count(atlas_name, chart, atlas_dir, monkeypatch):
    atlas = load_atlas_file(atlas_dir / f"{atlas_name}.json")
    fld = atlas.metrics["g"][chart]
    base = tuple(np.mean(atlas.charts[chart].domain[atlas.p:], axis=1))
    momentum = (0.9, -0.6)[:fld.qdim]
    lifts = [lift_lagrangian(fld, r) for r in range(1, 5)]
    calls = Counter()
    original = ExprProgram.eval

    def counting(program, env):
        calls[program] += 1
        return original(program, env)

    monkeypatch.setattr(ExprProgram, "eval", counting)
    counts = []
    for L in lifts:
        H = legendre_chain(L)
        calls.clear()
        H(base, momentum)
        counts.append(calls[L.program])
    assert counts == CHAIN_EVALUATIONS[(atlas_name, chart)]


def test_chain_rejects_slashed():
    L = lagrangian("y1_1^2", 1, slashed=True, excluded=parse("y1_1^2 - 1"))
    with pytest.raises(InvariantViolation):
        legendre_chain(L)


def test_chain_shape_validation(flat_metric):
    H = legendre_chain(lift_lagrangian(flat_metric, 2))
    with pytest.raises(ShapeError):
        H((0.1, 0.2), (1.0,))


# ------------------------------------------------------------ admissibility


def test_admissibility_flat_lift_passes(flat_metric):
    L = lift_lagrangian(flat_metric, 2)
    report = admissibility_check(L, samples=25, seed=0,
                                 base_box=[[0.0, 1.0]])
    assert report.passed, report.to_json()
    names = {c["name"] for c in report.checks}
    assert names == {"projectable", "hessian_positive_definite",
                     "nonnegative", "zero_at_zero_section",
                     "basic_level_attained"}


def test_admissibility_exponential_lift_passes(exp_metric):
    L = lift_lagrangian(exp_metric, 2)
    report = admissibility_check(L, samples=25, seed=0,
                                 base_box=[[-0.5, 0.8]])
    assert report.passed, report.to_json()


def test_admissibility_negative_quadratic_fails():
    L = lagrangian("-(y2_1^2) - y1_1^2", 2)
    report = admissibility_check(L, samples=10, seed=0,
                                 base_box=[[0.0, 1.0]])
    failing = {c["name"] for c in report.checks if not c["pass"]}
    assert "hessian_positive_definite" in failing
    assert "nonnegative" in failing


@pytest.mark.parametrize("text, ratio", [
    ("y2_1^2 + y1_1^2", 1.0),  # any positive q = 1 Hessian reads 1.0
    ("1e-10*(y2_1^2 + y1_1^2)", 1.0),
    ("-(y2_1^2) - y1_1^2", -1.0),
])
def test_admissibility_hessian_check_reads_the_eigenvalue_ratio(text, ratio):
    report = admissibility_check(lagrangian(text, 2), samples=5, seed=0,
                                 base_box=[[0.0, 1.0]])
    check, = (c for c in report.checks
              if c["name"] == "hessian_positive_definite")
    assert check == {"name": "hessian_positive_definite", "context": "L",
                     "metric": ratio, "tolerance": 1e-12, "direction": ">",
                     "pass": ratio > 0}


def test_admissibility_leaf_dependence_fails():
    # constructed directly: from_program would reject the leaf variable
    L = LagrangianField(order=1, qdim=1, program=parse("y1_1^2 + u1^2"),
                        name="leafy")
    report = admissibility_check(L, samples=5, seed=0,
                                 base_box=[[0.0, 1.0]])
    failing = {c["name"] for c in report.checks if not c["pass"]}
    assert "projectable" in failing


def test_admissibility_slashed_skips_zero_section():
    L = lagrangian("y1_1^2", 1, slashed=True,
                    excluded=parse("y1_1^2 - 1/10000"))
    report = admissibility_check(L, samples=10, seed=0,
                                 base_box=[[0.0, 1.0]])
    zero = [c for c in report.checks if c["name"] == "zero_at_zero_section"]
    assert zero[0]["context"] == "skipped (slashed)"
    assert report.passed, report.to_json()


@pytest.mark.parametrize("samples", [1, 5])
@pytest.mark.parametrize("phi,passes", [("2", True), ("1 + x1^2", True),
                                        ("-1", False)])
def test_admissibility_prescribed_basic_level(atlas_dir, phi, passes,
                                              samples):
    # condition (d) at a basic level phi(x) other than 1: every ray of the
    # lift crosses each positive level, but as L >= 0 none reaches -1, and
    # the closest the search gets is L = 0, a deviation of 1
    g = load_atlas_file(atlas_dir / "cubic.json").metrics["g"]["B"]
    report = admissibility_check(lift_lagrangian(g, 2), parse(phi),
                                 samples=samples, seed=0,
                                 base_box=[[0.5, 2.0]])
    level, = (c for c in report.checks if c["name"] == "basic_level_attained")
    assert level["pass"] is passes
    assert level["metric"] <= 2.3e-15 if passes else level["metric"] == 1.0


# ------------------------------------------- the ray search of condition (d)
#
# `_ray_level` runs every sample's bracketed Newton search as array
# arithmetic over the whole batch; `ray_levels_per_sample` is the same
# search as one coroutine per sample, fed by sub-batches of the samples
# still searching.  Every level must come out bit for bit the same.
SHIPPED_METRICS = [("cubic", "g", "A"), ("cubic", "g", "B"),
                   ("cubic", "g_bad", "A"), ("cubic", "g_bad", "B"),
                   ("plane", "flat", "O"), ("plane", "wavy", "O"),
                   ("plane", "expo", "O"), ("shear2", "g", "A"),
                   ("shear2", "g", "B")]


def take(x, idx):
    """The samples idx of a batch, all for None: the sub-batches that
    `ray_levels_per_sample` evaluates."""
    return x if idx is None else x[idx]


def _rays(L, base, direction):
    """`admissibility_check`'s rays: value_at(t) for the whole batch, or
    value_at(t, idx) for the samples idx."""
    ray = space(((1, 1),))
    names = coordinate_names(L.qdim, L.order)

    def value_at(t, idx=None):
        s = ray.seed(t, 0)
        env = dict(zip(names, [*columns(take(base, idx)),
                               *(s * d for d in columns(take(direction,
                                                             idx)))]))
        out = L.program.eval(env)
        return out.value, out.coeffs[..., 1]

    return value_at


def _same_levels(got, want):
    assert [dev is None for dev in got] == [dev is None for dev in want]
    assert [dev for dev in got if dev is not None] \
        == [dev for dev in want if dev is not None]


@pytest.mark.parametrize("atlas_name,metric,chart", SHIPPED_METRICS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_ray_level_matches_the_per_sample_search(atlas_dir, atlas_name,
                                                 metric, chart, r):
    atlas = load_atlas_file(atlas_dir / f"{atlas_name}.json")
    L = lift_lagrangian(atlas.metrics[metric][chart], r)
    box = atlas.charts[chart].domain[atlas.p:]
    for batch in (None, 1, 25, 150):
        base, _, direction = admissible_draws(L, box, batch or 1, r, 1.0)
        if batch == 1:
            base, direction = base[None], direction[None]
        value_at = _rays(L, base, direction)
        levels = [1.0] if batch is None else \
            [1.0, np.geomspace(1e-3, 1e3, batch)]
        for phi in levels:
            got = _ray_level(value_at, phi, batch)
            _same_levels(got, ray_levels_per_sample(value_at, phi, batch))
            assert len(got) == (batch or 1)


def _synthetic(scale, fn):
    """value_at of the rays v = scale fn(t), one scale per sample."""
    scale = np.asarray(scale, dtype=float)

    def value_at(t, idx=None):
        c = take(scale, idx)
        value, slope = fn(t)
        return c * value, c * slope

    return value_at


def test_ray_level_stops_each_sample_in_its_own_round():
    # v = c t^3 reaches 1 at c^(-1/3): exactly at t = 1 for c = 1, after a
    # few doublings or Newton steps for the others
    value_at = _synthetic([1.0, 1e-6, 3.0, 0.37, 1e4, 0.5],
                          lambda t: (t ** 3, 3.0 * t ** 2))
    rounds, sub_batches = [], []

    def counting(t):
        rounds.append(t.copy())
        return value_at(t)

    def counting_sub_batches(t, idx):
        sub_batches.append(range(6) if idx is None else idx.tolist())
        return value_at(t, idx)

    got = _ray_level(counting, 1.0, 6)
    _same_levels(got, ray_levels_per_sample(counting_sub_batches, 1.0, 6))
    assert None not in got
    # every round evaluates the whole batch, for as many rounds as the
    # sample that searches longest
    assert {len(t) for t in rounds} == {6}
    assert len(rounds) == len(sub_batches)
    assert len({len(idx) for idx in sub_batches}) > 2
    # c = 1 stops in round 1 and keeps its t in every later round
    assert 0 not in sub_batches[1]
    assert all(t[0] == 1.0 for t in rounds)
    # a ray that reads no slope doubles t and bisects, without Newton steps
    value_at = _synthetic([1e-6, 3.0, 0.37], lambda t: (t ** 3, 0.0 * t))
    got = _ray_level(value_at, 1.0, 3)
    _same_levels(got, ray_levels_per_sample(value_at, 1.0, 3))


def test_ray_level_gives_none_where_no_ray_reaches():
    # v = c (1 - exp(-t)) stays below 1 for c < 1
    value_at = _synthetic([2.0, 0.5, 0.9, 40.0],
                          lambda t: (-np.expm1(-t), np.exp(-t)))
    got = _ray_level(value_at, 1.0, 4)
    _same_levels(got, ray_levels_per_sample(value_at, 1.0, 4))
    assert [dev is None for dev in got] == [False, True, True, False]
    level = _ray_level(lambda t: (0.5 * t / (1.0 + t),
                                  0.5 / (1.0 + t) ** 2), 1.0, None)
    assert level == [None]
    # no slope: t doubles up to 2^59, where c = 1 comes within roundoff
    # of phi from below, with the bracket still open
    below = 1.0 - 2.0 ** -52
    value_at = _synthetic([1.0, 0.9], lambda t: (
        np.where(t >= legendre.RAY_REACH, below, 0.5), 0.0 * t))
    got = _ray_level(value_at, 1.0, 2)
    _same_levels(got, ray_levels_per_sample(value_at, 1.0, 2))
    assert got == [2.0 ** -52, None]


def test_ray_level_error_names_the_sample_of_the_full_batch():
    # sample 3 fails once it leaves t = 1, in round 2: a whole-batch round
    # of `_ray_level`, and position 2 of the reference's sub-batch, as
    # sample 0 stops at once
    value_at = _synthetic([1.0, 0.1, 0.2, 0.3, 0.4],
                          lambda t: (t ** 2, 2.0 * t))
    marked = np.arange(5) == 3

    def failing(t, idx=None):
        raise_where(take(marked, idx) & (t > 1.0), DomainError,
                    "ray at t = {}", t)
        return value_at(t, idx)

    for search in (_ray_level, ray_levels_per_sample):
        with pytest.raises(DomainError, match=r"ray at t = \S+ \(sample 3\)"):
            search(failing, 1.0, 5)


# ------------------------------------ the batched checks, point by point
#
# `certify` solves every sample's Newton at once, each sample frozen where
# it would stop alone.  Recomputed sample by sample through the per-point
# API on the same draws, the diagonal hamiltonian, the ray levels and the
# Newton iteration counts must come out the same: exactly, or within
# 1e-13 where a numpy ufunc stands in for `math` (cubic chart B).
BATCHED_CASES = [("cubic", 20, 1e-13), ("shear2", 3, 0.0)]


def _certify_metrics(tmp_path, atlas_dir, atlas_name, samples):
    out = tmp_path / "report.json"
    assert main(["certify", str(atlas_dir / f"{atlas_name}.json"),
                 "--metric", "g", "--order", "2", "--samples", str(samples),
                 "--out", str(out)]) == 0
    metrics = {}
    for c in json.loads(out.read_text())["checks"]:
        metrics.setdefault(c["name"], []).append(c["metric"])
    return metrics


@pytest.mark.parametrize("atlas_name,samples,tol", BATCHED_CASES)
def test_batched_hamiltonian_checks_match_point_by_point(
        tmp_path, atlas_dir, monkeypatch, atlas_name, samples, tol):
    r, seed = 2, 0
    atlas = load_atlas_file(atlas_dir / f"{atlas_name}.json")
    report = _certify_metrics(tmp_path, atlas_dir, atlas_name, samples)
    q = atlas.q
    stage_iterations = []
    newton = legendre._newton_top_row

    def recording(*args, **kwargs):
        out = newton(*args, **kwargs)
        if kwargs.get("stage") == 1:
            stage_iterations.append(out[2]["iterations"])
        return out

    monkeypatch.setattr(legendre, "_newton_top_row", recording)
    for k, (chart, fld) in enumerate(atlas.metrics["g"].items()):
        L, L1 = lift_lagrangian(fld, r), lift_lagrangian(fld, 1)
        H = legendre_chain(L)
        bases, momenta = hamiltonian_draws(atlas, chart, samples, seed)

        # the diagonal hamiltonian and the Newton iterations of each sample
        calls = Counter()
        original = ExprProgram.eval

        def counting(program, env):
            calls[program] += max([batch_of(v) or 1 for v in env.values()])
            return original(program, env)

        monkeypatch.setattr(ExprProgram, "eval", counting)
        stage_iterations.clear()
        dev, inverse_iterations = 0.0, []
        for base, momentum in zip(bases, momenta):
            cp = CotangentJetPoint(chart, 1, (), tuple(base), (),
                                   tuple(momentum))
            want, got = pseudo_hamiltonian(L1, cp).value, H(base, momentum)
            dev = max(dev, abs(got - want) / max(abs(got), abs(want)))
            inverse_iterations.append(legendre_inverse(
                L1, cp, return_stats=True)[1]["iterations"])
        alone = (calls[L.program], list(stage_iterations))
        calls.clear()
        stage_iterations.clear()
        H(bases, momenta)
        batched = (calls[L.program], list(stage_iterations[0]))
        monkeypatch.setattr(ExprProgram, "eval", original)
        # every sample evaluates L and iterates as often as alone
        assert batched == alone
        _, stats = _inverse_rows(L1, bases, np.zeros((samples, 0, q)),
                                 momenta)
        assert stats["iterations"] == inverse_iterations
        assert abs(report["diagonal_hamiltonian"][k] - dev) <= tol

        # the ray levels of admissibility condition (d)
        ray = space(((1, 1),))
        level = 0.0
        box = atlas.charts[chart].domain[atlas.p:]
        bases, _, directions = admissible_draws(L, box, samples, seed, 1.0)
        for base, direction in zip(bases, directions):

            def along(t):
                s = ray.seed(t, 0)
                env = dict(zip(coordinate_names(q, r),
                               [*base, *(s * d for d in direction)]))
                out = L.program.eval(env)
                return out.value, float(out.coeffs[1])

            (dev,) = _ray_level(along, 1.0, None)
            level = max(level, dev)
        assert abs(report["basic_level_attained"][k] - level) <= tol


@pytest.mark.parametrize("text,r", [(NON_METRIC_Q1, 2), (NON_METRIC_R3, 3)])
def test_batched_chain_and_inverse_match_each_sample(text, r):
    # wide momenta: samples stop after different numbers of steps, so
    # the masked Newton must freeze each where it would stop alone
    L = lagrangian(text, r)
    H = legendre_chain(L)
    rng = np.random.default_rng(23)
    momenta = rng.uniform(-6.0, 6.0, (9, 1))
    bases = rng.uniform(0.2, 1.0, (9, 1))
    got = H(bases, momenta)
    for s in range(9):
        assert got[s] == H(bases[s], momenta[s])
    jets = rng.uniform(-1.0, 1.0, (9, r - 1, 1))
    values = hamiltonian_at(L, bases, jets, momenta)
    _, stats = _inverse_rows(L, bases, jets, momenta)
    for s in range(9):
        cp = CotangentJetPoint("", r, (), tuple(bases[s]),
                               tuple(map(tuple, jets[s])), tuple(momenta[s]))
        point, alone = legendre_inverse(L, cp, return_stats=True)
        # the lower rows are float batches here, so y^4 is a ufunc power
        assert values[s] == pytest.approx(
            L.program.eval(jet_env(point.base, point.jets)), rel=1e-14)
        assert stats["iterations"][s] == alone["iterations"]
    assert len(set(stats["iterations"])) > 1
