import numpy as np
import pytest

from folijet.atlas import load_atlas_file
from folijet.dynamics import (
    LagrangianField,
    _semispray_series,
    SemiSprayField,
    dual_coefficients,
    projectors,
    semispray,
    top_hessian,
    vertical_hessian,
)
from folijet.errors import (
    ExcludedPoint,
    InvariantViolation,
    ShapeError,
    SingularHessian,
)
from folijet.expr import parse
from folijet.jets import TransverseJetPoint, jet_env, sample_points
from folijet.linalg import CONDITION_LIMIT, definiteness
from folijet.riemann import lift_lagrangian
from conftest import ATLAS_DIR
from oracles import central_difference_vector, float_semispray
from test_cli import _q3_atlas


def jet_point(base, jets, chart="A"):
    return TransverseJetPoint(chart, len(jets), (), tuple(base),
                              tuple(tuple(row) for row in jets))


def lagrangian(text, order, qdim=1, **kw):
    return LagrangianField.from_program(parse(text), order=order, qdim=qdim,
                                        **kw)


# ------------------------------------------------------- vertical hessian


def test_vertical_hessian_examples():
    L = lagrangian("y2_1^2 + y2_2^2", 2, qdim=2)
    pt = jet_point([0.3, 0.4], [[0.1, 0.2], [0.5, -0.6]])
    hess = vertical_hessian(L, pt)
    assert hess.shape == (2, 2)
    assert np.allclose(hess, 2 * np.eye(2))
    assert definiteness(hess) > 1 / CONDITION_LIMIT

    L = lagrangian("exp(x1)*y1_1^2", 1)
    hess = vertical_hessian(L, jet_point([0.0], [[0.7]]))
    assert hess[0, 0] == pytest.approx(2.0)

    L = lagrangian("y2_1", 2)
    hess = vertical_hessian(L, jet_point([0.5], [[0.1], [0.2]]))
    assert np.allclose(hess, 0.0)
    assert definiteness(hess) == -np.inf


def test_lagrangian_rejects_leaf_and_momentum_variables():
    with pytest.raises(InvariantViolation):
        lagrangian("y1_1^2 + u1", 1)
    with pytest.raises(InvariantViolation):
        lagrangian("p_1^2", 1)
    with pytest.raises(ShapeError):
        lagrangian("x1", 0)


# ------------------------------------------------------------- semispray


def test_semispray_flat_vanishes():
    L = lagrangian("y1_1^2 + y1_2^2", 1, qdim=2)
    s = semispray(L, jet_point([0.4, 0.9], [[0.3, -0.2]]))
    assert np.allclose(s, 0.0, atol=1e-14)


def test_semispray_exponential_metric_hand_value():
    # h = 2 e^x, Gamma(dL/dy) = 2 e^x y^2, dL/dx = e^x y^2  =>  S = y^2/8
    L = lagrangian("exp(x1)*y1_1^2", 1)
    for x, y in ((0.0, 1.0), (0.7, -0.4), (-0.3, 2.0)):
        s = semispray(L, jet_point([x], [[y]]))
        assert s[0] == pytest.approx(y * y / 8.0, abs=1e-12)


def test_semispray_flat_second_order():
    # L = y1^2 + y2^2: bracket = Gamma(2 y2) - 2 y1 = -2 y1, h = 2
    L = lagrangian("y1_1^2 + y2_1^2", 2)
    s = semispray(L, jet_point([1.0], [[0.9], [0.2]]))
    assert s[0] == pytest.approx(-0.9 / 6.0, abs=1e-13)


@pytest.mark.parametrize("name", ["cubic", "plane", "shear2", "q3"])
def test_spray_values_match_the_float_kernel(name, tmp_path):
    # the lifted kernel's values are the float kernel's, bit for bit, for
    # every metric lift and lagrangian of the atlas
    atlas = load_atlas_file(_q3_atlas(tmp_path) if name == "q3"
                            else ATLAS_DIR / f"{name}.json")
    fields = [(atlas.charts[chart].domain[atlas.p:], lift_lagrangian(fld, r))
              for family in atlas.metrics.values()
              for chart, fld in family.items() for r in (1, 2, 3, 4)]
    fields += [(atlas.charts[chart].domain[atlas.p:], L)
               for family in atlas.lagrangians.values()
               for chart, L in family.items()]
    for box, L in fields:
        r, q = L.order, L.qdim
        for samples in (1, 9):
            base, jets = sample_points(np.random.default_rng(r), box,
                                       samples, r, q)
            jets.reshape(-1, r, q)[0, 0] = 0.0  # an all-zero jet row
            got = np.stack([s.value for s in _semispray_series(L, base, jets)],
                           axis=-1)
            want = float_semispray(L, base, jets)
            assert got.shape == want.shape == base.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_semispray_singular_hessian():
    L = lagrangian("y2_1", 2)
    with pytest.raises(SingularHessian):
        semispray(L, jet_point([0.5], [[0.1], [0.2]]))


def test_batched_spray_error_names_its_sample():
    # the vertical hessian 2 x1 vanishes at sample 2 alone
    L = lagrangian("x1*y1_1^2", 1, name="L")
    base = np.array([[0.5], [1.0], [0.0], [2.0]])
    with pytest.raises(SingularHessian) as err:
        SemiSprayField(L).jacobian_at(base, np.full((4, 1, 1), 0.3))
    assert err.value.sample == 2
    assert err.value.detail == ("vertical hessian of 'L' is singular: "
                                "condition estimate inf")
    assert str(err.value) == err.value.detail + " (sample 2)"


def test_slashed_lagrangian_excluded_point():
    L = lagrangian("y1_1^2", 1, slashed=True,
                    excluded=parse("y1_1^2 - 1/100"))
    with pytest.raises(ExcludedPoint):
        top_hessian(L, [0.5], [[0.01]])
    assert L.program.eval(jet_env([0.5], [[2.0]])) == pytest.approx(4.0)


# --------------------------------------------------- connection coefficients


def test_dual_coefficients_hand_value():
    S = SemiSprayField.from_lagrangian(lagrangian("exp(x1)*y1_1^2", 1))
    coeffs = dual_coefficients(S, [0.2], [[0.8]])
    assert len(coeffs) == 1
    assert coeffs[0][0, 0] == pytest.approx(-0.8 / 4.0, abs=1e-12)


def test_dual_coefficients_zero_spray():
    S = SemiSprayField.from_lagrangian(lagrangian("y2_1^2", 2))
    coeffs = dual_coefficients(S, [0.5], [[0.3], [0.1]])
    assert len(coeffs) == 2
    assert all(np.allclose(m, 0.0) for m in coeffs)


@pytest.mark.parametrize("text,r,q", [
    ("exp(x1)*(y1_1^2 + y2_1^2)", 2, 1),
    ("(1 + x1^2)*y2_1^2 + sin(x2)*y2_2^2 + y1_1*y1_2", 2, 2),
])
def test_dual_coefficients_match_finite_differences(text, r, q):
    L = lagrangian(text, r, qdim=q)
    S = SemiSprayField.from_lagrangian(L)
    rng = np.random.default_rng(7)
    base = rng.uniform(0.3, 1.0, q)
    jets = [rng.uniform(0.4, 1.2, q) for _ in range(r)]
    coeffs = dual_coefficients(S, base, jets)

    def spray_at(flat):
        p = TransverseJetPoint("A", r, (), tuple(flat[:q]),
                               tuple(tuple(flat[(k + 1) * q:(k + 2) * q])
                                     for k in range(r)))
        return semispray(L, p)

    flat = np.concatenate([base] + [np.asarray(j) for j in jets])
    jac = central_difference_vector(spray_at, flat)
    for k in range(1, r + 1):
        j = r + 1 - k
        want = -jac[:, j * q:(j + 1) * q]
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(coeffs[k - 1], want, atol=1e-6 * scale)


# -------------------------------------------------------------- projectors


def test_projectors_flat_first_order():
    S = SemiSprayField.from_lagrangian(lagrangian("y1_1^2", 1))
    h, v = projectors(S, jet_point([0.5], [[0.3]]))
    assert np.allclose(h, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(v, np.diag([0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("text,r,q", [
    ("exp(x1)*y1_1^2", 1, 1),
    ("exp(x1)*(y1_1^2 + y2_1^2)", 2, 1),
    ("(1 + x1^2)*y2_1^2 + (2 + sin(x2))*y2_2^2 + y1_1^2 + y1_2^2", 2, 2),
])
def test_projector_laws(text, r, q):
    S = SemiSprayField.from_lagrangian(lagrangian(text, r, qdim=q))
    rng = np.random.default_rng(5)
    for _ in range(50):
        pt = jet_point(rng.uniform(0.3, 1.0, q),
                       [rng.uniform(-1, 1, q) for _ in range(r)])
        h, v = projectors(S, pt)
        n = (r + 1) * q
        assert np.abs(h + v - np.eye(n)).max() <= 1e-14
        assert np.abs(h @ h - h).max() <= 1e-9
        assert np.abs(v @ v - v).max() <= 1e-9
        assert np.abs(h @ v).max() <= 1e-9
        assert np.abs(v @ h).max() <= 1e-9


def test_spray_order_mismatch():
    S = SemiSprayField.from_lagrangian(lagrangian("y1_1^2", 1))
    with pytest.raises(ShapeError):
        S.jacobian_at([0.5], [[0.3], [0.1]])
