import json

import numpy as np
import pytest

from folijet.atlas import load_atlas, sample_overlap, validate_foliated
from folijet.errors import InvariantViolation, SchemaError
from folijet.report import worst


def minimal_doc(**overrides):
    doc = {
        "leaf_dim": 1,
        "transverse_dim": 1,
        "charts": [
            {"name": "A", "domain": [[0.0, 1.0], [0.5, 2.0]]},
            {"name": "B", "domain": [[0.0, 1.0], [0.125, 8.0]]},
        ],
        "transitions": [
            {
                "name": "A->B",
                "from": "A",
                "to": "B",
                "leaf_exprs": ["u1"],
                "transverse_exprs": ["x1^3"],
                "overlap": [[0.0, 1.0], [0.5, 2.0]],
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_load_cubic_atlas(cubic_atlas):
    assert cubic_atlas.p == 1 and cubic_atlas.q == 1
    assert set(cubic_atlas.charts) == {"A", "B"}
    assert set(cubic_atlas.transitions) == {"A->B", "B->A"}
    assert set(cubic_atlas.metrics) == {"g", "g_bad"}
    assert set(cubic_atlas.metrics["g"]) == {"A", "B"}
    assert "flat2" in cubic_atlas.lagrangians


def test_load_from_json_text():
    atlas = load_atlas(json.dumps(minimal_doc()))
    assert "A->B" in atlas.transitions


def test_rejects_non_foliated_transition():
    doc = minimal_doc()
    doc["transitions"][0]["transverse_exprs"] = ["x1 + u1"]
    with pytest.raises(InvariantViolation, match="not.*foliated|foliated"):
        load_atlas(doc)


def test_rejects_missing_keys_and_bad_shapes():
    with pytest.raises(SchemaError):
        load_atlas({"transverse_dim": 1})
    doc = minimal_doc()
    doc["charts"][0]["domain"] = [[0.0, 1.0]]
    with pytest.raises(SchemaError):
        load_atlas(doc)
    doc = minimal_doc()
    doc["transitions"][0]["overlap"] = [[0.0, 1.0], [0.1, 3.0]]
    with pytest.raises(InvariantViolation, match="overlap"):
        load_atlas(doc)


def test_rejects_unknown_inverse():
    doc = minimal_doc()
    doc["transitions"][0]["inverse_of"] = "nope"
    with pytest.raises(SchemaError, match="inverse_of"):
        load_atlas(doc)


def test_sample_overlap_deterministic(cubic_atlas):
    t = cubic_atlas.transitions["A->B"]
    a = sample_overlap(t, 10, 3)
    b = sample_overlap(t, 10, 3)
    assert np.array_equal(a, b)
    box = np.asarray(t.overlap)
    assert np.all(a >= box[:, 0]) and np.all(a <= box[:, 1])


def test_validate_cubic_passes(cubic_atlas):
    report = validate_foliated(cubic_atlas, samples=25, seed=0)
    assert report.passed, report.to_json()
    names = {c.name for c in report.checks}
    assert names == {"transverse_jacobian_invertible", "mixed_block_zero",
                     "inverse_round_trip"}


def test_validate_triple_cocycle(triple_atlas):
    report = validate_foliated(triple_atlas, samples=25, seed=0)
    assert report.passed, report.to_json()
    cocycle = [c for c in report.checks if c.name == "cocycle"]
    assert len(cocycle) == 1 and cocycle[0].metric <= 1e-9


def _two_charts(a_to_b, b_to_a, overlap_a, overlap_b, leaf_dim=0):
    """Charts A and B of q = 1, each its overlap, and transitions between
    them, mutually inverse (a leaf coordinate maps to itself)."""
    return {
        "leaf_dim": leaf_dim, "transverse_dim": 1,
        "charts": [{"name": "A", "domain": overlap_a},
                   {"name": "B", "domain": overlap_b}],
        "transitions": [
            {"name": f"{a}->{b}", "from": a, "to": b,
             "leaf_exprs": ["u1"] * leaf_dim, "transverse_exprs": [expr],
             "overlap": overlap, "inverse_of": f"{b}->{a}"}
            for a, b, expr, overlap in (("A", "B", a_to_b, overlap_a),
                                        ("B", "A", b_to_a, overlap_b))],
    }


def test_a_round_trip_is_judged_in_its_chart_s_units():
    # chart B measures x in units of 1e-10, and B->A is off by 0.5: a round
    # trip from B misses by 5e-11, half the width of B's overlap
    atlas = load_atlas(_two_charts("1e-10*x1", "1e10*x1 + 0.5",
                                   [[0.5, 1.5]], [[0.5e-10, 1.5e-10]]))
    trips = {c.context: c for c in validate_foliated(atlas, samples=5).checks
             if c.name == "inverse_round_trip"}
    for name in ("A->B", "B->A"):
        assert trips[name].metric == pytest.approx(0.5, rel=1e-5)
        assert not trips[name].passed
    # over overlaps of zero width, exact round trips read 0, not 0/0
    atlas = load_atlas(_two_charts("2*x1", "0.5*x1", [[0.5, 0.5], [1.0, 1.0]],
                                   [[0.5, 0.5], [2.0, 2.0]], leaf_dim=1))
    report = validate_foliated(atlas, samples=5)
    assert [c.metric for c in report.checks
            if c.name == "inverse_round_trip"] == [0.0, 0.0]


def test_validate_flags_near_singular_transition():
    doc = minimal_doc()
    doc["charts"][0]["domain"] = [[0.0, 1.0], [-1.0, 1.0]]
    doc["charts"][1]["domain"] = [[0.0, 1.0], [-1.0, 1.0]]
    doc["transitions"][0]["transverse_exprs"] = ["x1^2"]
    doc["transitions"][0]["overlap"] = [[0.0, 1.0], [-1.0, 1.0]]
    doc["transitions"][0]["overlap"] = [[0.0, 1.0], [-1e-6, 1e-6]]
    atlas = load_atlas(doc)
    report = validate_foliated(atlas, samples=50, seed=0)
    failing = {c.name for c in report.checks if not c.passed}
    assert "transverse_jacobian_invertible" in failing


def unit_atlas_doc():
    """Two charts of q = 1, B measuring x in units of 1e-10, with the
    metric g_A = 1 + x^2 and g_B its push-forward: a valid atlas and an
    invariant metric."""
    doc = _two_charts("1e-10*x1", "1e10*x1", [[0.5, 2.0]], [[0.5e-10, 2e-10]])
    doc["metrics"] = [
        {"name": "g", "chart": "A", "components": [["1 + x1^2"]]},
        {"name": "g", "chart": "B",
         "components": [["1e20*(1 + (1e10*x1)^2)"]]}]
    return doc


def test_a_transition_jacobian_is_judged_in_its_charts_units():
    # |det| is 1e-10 one way and 1e10 the other, and each condition is 1
    report = validate_foliated(load_atlas(unit_atlas_doc()), samples=25)
    assert report.passed, report.to_json()
    assert [c.metric for c in report.checks
            if c.name == "transverse_jacobian_invertible"] == [1.0, 1.0]


def test_worst_is_nan_when_any_value_is():
    nan = float("nan")
    assert worst(0.0, [1e-3, 2e-3]) == 2e-3
    assert worst(np.inf, np.array([3.0, 1.0]), min) == 1.0
    for start, values, pick in ((0.0, [1e-3, nan], max),
                                (0.0, np.array([nan, 1e-3]), max),
                                (nan, [1e-3], max),
                                (np.inf, [2.0, nan], min)):
        assert np.isnan(worst(start, values, pick))
