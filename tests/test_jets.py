import itertools

import numpy as np
import pytest

from folijet.atlas import load_atlas, load_atlas_file, sample_overlap
from folijet.dynamics import (LagrangianField, SemiSprayField,
                              dual_coefficients, projector_pair, projectors,
                              semispray, top_hessian, vertical_hessian)
from folijet.errors import OutsideOverlap, ShapeError
from folijet.expr import parse
from folijet.jets import (
    TransverseJetPoint,
    _prolong,
    include_jet,
    j_matrix,
    prolong_jacobian,
    prolong_transition,
)
from folijet.legendre import (CotangentJetPoint, hamiltonian_at,
                              legendre_inverse, legendre_map,
                              pseudo_hamiltonian)
from folijet.riemann import MetricField, lift_metric
from folijet.scalars import stack_samples
from conftest import ATLAS_DIR
from oracles import central_difference_vector, sympy_prolong, unseeded_prolong
from test_cli import _q3_atlas


def make_atlas(q, exprs, lo=0.2, hi=1.8, name="A->B"):
    return load_atlas({
        "leaf_dim": 0,
        "transverse_dim": q,
        "charts": [
            {"name": "A", "domain": [[lo, hi]] * q},
            {"name": "B", "domain": [[-100.0, 100.0]] * q},
        ],
        "transitions": [{
            "name": name, "from": "A", "to": "B",
            "leaf_exprs": [], "transverse_exprs": exprs,
            "overlap": [[lo, hi]] * q,
        }],
    })


TRANSITIONS = {
    1: ["x1^3"],
    2: ["x1 + x2^2", "x2 * exp(x1/4)"],
    3: ["x1*x2", "x2 + sin(x3)", "x3^2 + x1"],
}


def test_cubic_hand_values():
    atlas = make_atlas(1, ["x1^3"], 0.5, 2.0)
    t = atlas.transitions["A->B"]
    point = TransverseJetPoint("A", 3, (), (1.0,), ((1.0,), (0.0,), (0.0,)))
    image = prolong_transition(atlas, t, point)
    assert image.base == (1.0,)
    assert image.jets == ((3.0,), (3.0,), (1.0,))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_prolongation_matches_sympy_oracle(q, r):
    atlas = make_atlas(q, TRANSITIONS[q])
    t = atlas.transitions["A->B"]
    rng = np.random.default_rng(100 * q + r)
    for _ in range(10):
        base = rng.uniform(0.3, 1.5, q)
        jets = tuple(tuple(rng.uniform(-1, 1, q)) for _ in range(r))
        point = TransverseJetPoint("A", r, (), tuple(base), jets)
        image = prolong_transition(atlas, t, point)
        want_base, want_jets = sympy_prolong(TRANSITIONS[q], base, jets)
        assert np.allclose(image.base, want_base, atol=1e-10)
        assert np.allclose(image.jets, want_jets, atol=1e-10)


def test_prolong_requires_overlap_and_chart():
    atlas = make_atlas(1, ["x1^3"], 0.5, 2.0)
    t = atlas.transitions["A->B"]
    outside = TransverseJetPoint("A", 1, (), (3.0,), ((1.0,),))
    with pytest.raises(OutsideOverlap):
        prolong_transition(atlas, t, outside)


def test_outside_overlap_names_the_point_and_its_sample():
    # braces in a transition name are printed, not formatted
    atlas = make_atlas(1, ["x1^3"], 0.5, 2.0, name="A->B {0}")
    t = atlas.transitions["A->B {0}"]
    outside = TransverseJetPoint("A", 1, (), (3.0,), ((1.0,),))
    with pytest.raises(OutsideOverlap) as err:
        prolong_transition(atlas, t, outside)
    assert str(err.value) == "point [3.0] outside overlap of A->B {0}"
    base = np.array([[1.0], [0.25], [3.0]])
    with pytest.raises(OutsideOverlap) as err:
        _prolong(atlas, t, np.zeros((3, 0)), base, np.zeros((3, 1, 1)))
    assert err.value.sample == 1
    assert str(err.value) == \
        "point [0.25] outside overlap of A->B {0} (sample 1)"


def test_zero_section_prolongs_to_zero_section():
    atlas = make_atlas(2, TRANSITIONS[2])
    t = atlas.transitions["A->B"]
    zero = TransverseJetPoint("A", 3, (), (0.6, 0.9), ((0.0, 0.0),) * 3)
    image = prolong_transition(atlas, t, zero)
    assert all(v == 0.0 for row in image.jets for v in row)


@pytest.mark.parametrize("name", ["cubic", "shear2", "triple", "q3"])
def test_transport_matches_the_unseeded_kernel(name, tmp_path):
    # the image rows are the unseeded curve's coefficients, bit for bit
    atlas = load_atlas_file(_q3_atlas(tmp_path) if name == "q3"
                            else ATLAS_DIR / f"{name}.json")
    p, q = atlas.p, atlas.q
    for t in atlas.transitions.values():
        for r in (1, 2, 3, 4):
            for samples in (1, 9):
                pts = stack_samples(sample_overlap(t, samples, r))
                jets = stack_samples(np.random.default_rng(r).uniform(
                    -1.0, 1.0, (samples, r, q)))
                jets.reshape(-1, r, q)[0, 0] = 0.0  # an all-zero jet row
                leaf, base = pts[..., :p], pts[..., p:]
                got = _prolong(atlas, t, leaf, base, jets)
                want = unseeded_prolong(atlas, t, leaf, base, jets)
                assert got[3].shape == base.shape[:-1] + ((r + 1) * q,) * 2
                for a, b in zip(got, want):
                    assert a.shape == b.shape
                    assert np.array_equal(a, b)
                    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("q,r", [(1, 3), (2, 2)])
def test_prolong_jacobian_matches_finite_differences(q, r):
    atlas = make_atlas(q, TRANSITIONS[q])
    t = atlas.transitions["A->B"]
    rng = np.random.default_rng(5)
    base = rng.uniform(0.4, 1.4, q)
    jets = tuple(tuple(rng.uniform(-1, 1, q)) for _ in range(r))
    point = TransverseJetPoint("A", r, (), tuple(base), jets)
    got = prolong_jacobian(atlas, t, point)

    def transport(flat):
        p = TransverseJetPoint("A", r, (), tuple(flat[:q]),
                               tuple(tuple(flat[(k + 1) * q:(k + 2) * q])
                                     for k in range(r)))
        image = prolong_transition(atlas, t, p)
        return np.concatenate([image.base] + [np.asarray(row)
                                              for row in image.jets])

    flat = np.concatenate([base] + [np.asarray(row) for row in jets])
    want = central_difference_vector(transport, flat)
    assert np.allclose(got, want, atol=1e-6)


def test_prolong_jacobian_shift_structure():
    atlas = make_atlas(1, ["x1^3"], 0.5, 2.0)
    t = atlas.transitions["A->B"]
    point = TransverseJetPoint("A", 3, (), (1.1,), ((0.7,), (-0.2,), (0.4,)))
    jac = prolong_jacobian(atlas, t, point)
    # strictly upper blocks vanish; shifted blocks repeat; diagonal = dx'/dx
    for g in range(4):
        for b in range(g + 1, 4):
            assert jac[g, b] == 0.0
    for g in range(1, 4):
        for b in range(1, g + 1):
            assert jac[g, b] == pytest.approx(jac[g - 1, b - 1], abs=1e-10)
        assert jac[g, g] == pytest.approx(3 * 1.1**2, abs=1e-10)


def included(r_high, point):
    """A jet point with its rows carried to order r_high by `include_jet`."""
    return TransverseJetPoint(point.chart, r_high, point.leaf, point.base,
                              include_jet(r_high, point.jets))


def test_include_jet_factors_and_identity():
    jets = np.array([[2.0], [3.0]])
    assert np.array_equal(include_jet(2, jets), jets)
    up = include_jet(4, jets)
    # d = 2: row d+j carries (d+j)!/j! * y^(j)
    assert up.tolist() == [[0.0], [0.0], [6 * 2.0], [12 * 3.0]]
    # a batch maps sample by sample
    batch = np.stack([jets, -jets])
    assert np.array_equal(include_jet(4, batch), np.stack([up, -up]))
    with pytest.raises(ShapeError):
        include_jet(1, jets)  # down to a lower order
    with pytest.raises(ShapeError):
        include_jet(2, np.zeros((0, 1)))  # no jet rows


def test_inclusion_composition_exact():
    jets = np.array([[1.5]])
    via = include_jet(4, include_jet(2, jets))
    direct = include_jet(4, jets)
    assert np.array_equal(via, direct)


def test_inclusion_commutes_with_prolongation():
    # The coordinate form of the inclusion is transition-independent exactly
    # when the source order is 1 (the only nonzero jet row sits at the top,
    # so transport acts on it purely linearly).  Higher source orders only
    # give an inclusion of submanifolds, checked separately below.
    atlas = make_atlas(1, ["x1^3"], 0.5, 2.0)
    t = atlas.transitions["A->B"]
    rng = np.random.default_rng(11)
    for r_low, r_high in ((1, 2), (1, 3), (1, 4), (3, 3)):
        base = rng.uniform(0.6, 1.8, 1)
        jets = tuple(tuple(rng.uniform(-1, 1, 1)) for _ in range(r_low))
        point = TransverseJetPoint("A", r_low, (), tuple(base), jets)
        a = prolong_transition(atlas, t, included(r_high, point))
        b = prolong_transition(atlas, t, point)
        assert np.allclose(a.jets, include_jet(r_high, b.jets), atol=1e-9)
        assert np.allclose(a.base, b.base, atol=1e-12)


def test_inclusion_image_invariant_under_prolongation():
    # For source order >= 2 the included image is preserved as a set: jet
    # transport never repopulates the leading zero rows, because the lowest
    # nonzero Taylor degree of the included curve exceeds them.
    atlas = make_atlas(2, TRANSITIONS[2])
    t = atlas.transitions["A->B"]
    rng = np.random.default_rng(17)
    for r_low, r_high in ((2, 4), (2, 5), (3, 5)):
        base = rng.uniform(0.4, 1.4, 2)
        jets = tuple(tuple(rng.uniform(-1, 1, 2)) for _ in range(r_low))
        point = TransverseJetPoint("A", r_low, (), tuple(base), jets)
        image = prolong_transition(atlas, t, included(r_high, point))
        for k in range(r_high - r_low):
            assert image.jets[k] == (0.0, 0.0)


def test_j_shift_and_dual():
    # fiber groups (X, Y^(1), Y^(2)) at r = 2, q = 2
    J = j_matrix(2, 2)
    vec = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert (J @ vec).tolist() == [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert (J @ J @ vec).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
    assert not (J @ J @ J).any()  # J^(r+1) = 0
    assert (J.T @ vec).tolist() == [3.0, 4.0, 5.0, 6.0, 0.0, 0.0]


def test_shape_validation():
    with pytest.raises(ShapeError):
        TransverseJetPoint("A", 2, (), (1.0,), ((1.0,),))
    with pytest.raises(ShapeError):
        TransverseJetPoint("A", 0, (), (1.0,), ())


# -------------------------------------------------------- the fit contract

# fields of order 2 on q = 2, and every entry that takes points of one: the
# point forms, fed a point of the given base and rows, and the array forms
FIT_L = LagrangianField.from_program(parse("y1_1^2 + y2_1^2 + y2_2^2"),
                                     order=2, qdim=2)
FIT_S = SemiSprayField.from_lagrangian(FIT_L)
FIT_G = lift_metric(
    {"": MetricField.from_components([["1", "0"], ["0", "1"]], 2)}, 2)
JET_ENTRIES = {
    "vertical_hessian": lambda pt: vertical_hessian(FIT_L, pt),
    "semispray": lambda pt: semispray(FIT_L, pt),
    "projectors": lambda pt: projectors(FIT_S, pt),
    "LiftedMetric.evaluate": FIT_G.evaluate,
}
COTANGENT_ENTRIES = {
    "legendre_inverse": lambda cp: legendre_inverse(FIT_L, cp),
    "pseudo_hamiltonian": lambda cp: pseudo_hamiltonian(FIT_L, cp),
}
ARRAY_ENTRIES = {
    "top_hessian": lambda base, jets: top_hessian(FIT_L, base, jets),
    "legendre_map": lambda base, jets: legendre_map(FIT_L, base, jets),
    "SemiSprayField.jacobian_at": FIT_S.jacobian_at,
    "projector_pair": lambda base, jets: projector_pair(FIT_S, base, jets),
    "dual_coefficients": lambda base, jets: dual_coefficients(FIT_S, base,
                                                              jets),
    "LiftedMetric.evaluate_at": lambda base, jets: FIT_G.evaluate_at(
        "", base, jets),
    # fed the lower rows of the jets: one row fewer
    "hamiltonian_at": lambda base, jets: hamiltonian_at(
        FIT_L, base, jets[..., 1:, :], np.ones(base.shape)),
}


@pytest.mark.parametrize("entry", [*JET_ENTRIES, *COTANGENT_ENTRIES,
                                   *ARRAY_ENTRIES])
def test_point_entries_raise_one_shape_error(entry):
    # the wrong order, above and below, then the wrong dimension
    for order, q in ((3, 2), (1, 2), (2, 3)):
        base, rows = np.full(q, 0.5), np.full((order, q), 0.1)
        if entry in JET_ENTRIES:
            calls = [lambda: JET_ENTRIES[entry](TransverseJetPoint(
                "", order, (), tuple(base), tuple(map(tuple, rows))))]
        elif entry in COTANGENT_ENTRIES:
            calls = [lambda: COTANGENT_ENTRIES[entry](CotangentJetPoint(
                "", order, (), tuple(base), tuple(map(tuple, rows[1:])),
                (1.0,) * q))]
        else:  # one point, then a batch of three
            calls = [lambda b=b, j=j: ARRAY_ENTRIES[entry](b, j)
                     for b, j in ((base, rows), (np.tile(base, (3, 1)),
                                                 np.tile(rows, (3, 1, 1))))]
        for call in calls:
            with pytest.raises(ShapeError) as err:
                call()
            assert str(err.value) == (
                f"point of order {order}, dimension {q} does not fit a "
                "field of order 2, dimension 2")
    if entry in ARRAY_ENTRIES:  # 3 base samples, the jets of 2
        with pytest.raises(ShapeError) as err:
            ARRAY_ENTRIES[entry](np.full((3, 2), 0.5), np.full((2, 2, 2), 0.1))
        rows = 1 if entry == "hamiltonian_at" else 2
        assert str(err.value) == (f"base of shape (3, 2) and jets of shape "
                                  f"(2, {rows}, 2) differ in their batch axes")
    if entry == "hamiltonian_at":  # a momentum of q + 1, then of q - 1
        for lead, q in itertools.product(((), (3,)), (3, 1)):
            with pytest.raises(ShapeError) as err:
                hamiltonian_at(FIT_L, np.full(lead + (2,), 0.5),
                               np.full(lead + (1, 2), 0.1),
                               np.ones(lead + (q,)))
            assert str(err.value) == (
                f"momentum of shape {lead + (q,)} does not fit a base of "
                f"shape {lead + (2,)}")


def test_fit_names_both_dimensions_of_a_misshapen_point():
    with pytest.raises(ShapeError) as err:
        FIT_G.evaluate_at("", np.full(2, 0.5), np.zeros((2, 3)))
    assert str(err.value) == ("point of order 2, dimension 2, 3 does not "
                              "fit a field of order 2, dimension 2")
    # a scalar base has no transverse axis at all
    with pytest.raises(ShapeError) as err:
        FIT_G.evaluate_at("", 0.5, np.zeros((2, 2)))
    assert str(err.value) == ("point of order 2, dimension 0, 2 does not "
                              "fit a field of order 2, dimension 2")
