import copy
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folijet.atlas import (COCYCLE_TOLERANCE, DET_TOLERANCE,
                           ROUNDTRIP_TOLERANCE)
from folijet.cli import (HAMILTONIAN_TOLERANCE, PROJECTOR_TOLERANCE,
                         build_parser, main)
from folijet.expr import parse
from folijet.riemann import EXACTNESS_TOLERANCE, HOLONOMY_TOLERANCE
from oracles import recoordinatize

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def child_env():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_process(*argv):
    """Run a Python script or module in a fresh interpreter."""
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=300)


def buffered_env():
    """`child_env` without PYTHONUNBUFFERED: a child that writes through at
    once would hide a missing flush."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_validate_passes(capsys, atlas_dir):
    code, out, _ = run(capsys, "validate", str(atlas_dir / "cubic.json"))
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["failed"] == 0


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_validate_non_foliated_is_input_error(capsys, tmp_path):
    doc = {
        "leaf_dim": 1,
        "transverse_dim": 1,
        "charts": [
            {"name": "A", "domain": [[0.0, 1.0], [0.5, 2.0]]},
            {"name": "B", "domain": [[0.0, 1.0], [0.5, 2.0]]},
        ],
        "transitions": [{
            "name": "A->B", "from": "A", "to": "B",
            "leaf_exprs": ["u1"], "transverse_exprs": ["x1 + u1"],
            "overlap": [[0.0, 1.0], [0.5, 2.0]],
        }],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "foliated" in err


def with_metric(entry):
    """A metric `entry` on chart A, whose domain widens to [0.5, 8]."""
    def change(doc):
        doc["charts"][0]["domain"] = [[0.5, 8.0]]
        doc["metrics"] = [{"name": "g", "chart": "A",
                           "components": [[entry]]}]
    return change


NUMERIC_BREAKS = {
    "metric_exp_overflows": with_metric("exp(1000*x1)"),
    "metric_power_overflows": with_metric("x1^400"),
    "metric_not_finite": with_metric("1e200*1e200*x1 + 1"),
}


def lagrangian(chart, order, expr="y1_1^2"):
    """A presentation of the lagrangian family "L" in `chart`."""
    return {"name": "L", "chart": chart, "order": order, "expr": expr}


def with_leaf_dim(value):
    """`leaf_dim` set to `value`, and one leaf coordinate u1 in every box:
    a value that truncates to 1 would load."""
    def change(doc):
        doc["leaf_dim"] = value
        for entry in doc["charts"]:
            entry["domain"] = [[0.0, 1.0]] + entry["domain"]
        for entry in doc["transitions"]:
            entry["overlap"] = [[0.0, 1.0]] + entry["overlap"]
            entry["leaf_exprs"] = ["u1"]
    return change


def with_lower_entry(entry):
    """q = 2, with a metric on chart A whose entry (1,0) is `entry` and
    whose entry (0,1) is 0."""
    def change(doc):
        doc["transverse_dim"] = 2
        for box in ([c["domain"] for c in doc["charts"]]
                    + [doc["transitions"][0]["overlap"]]):
            box.append([0.5, 2.0])
        doc["transitions"][0]["transverse_exprs"].append("x2")
        doc["metrics"] = [{"name": "g", "chart": "A",
                           "components": [["1", "0"], [entry, "1"]]}]
    return change


SCHEMA_BREAKS = {
    "chart_without_name": lambda doc: doc["charts"][0].pop("name"),
    "transition_without_overlap":
        lambda doc: doc["transitions"][0].pop("overlap"),
    "metrics_as_dict": lambda doc: doc.update(metrics={"g": {"A": [["1"]]}}),
    "lagrangians_as_null": lambda doc: doc.update(lagrangians=None),
    "metric_presented_twice_in_a_chart": lambda doc: doc.update(metrics=[
        {"name": "g", "chart": "A", "components": [["1"]]},
        {"name": "g", "chart": "A", "components": [["2"]]}]),
    "lagrangian_presented_twice_in_a_chart": lambda doc: doc.update(
        lagrangians=[lagrangian("A", 1), lagrangian("A", 1, "2*y1_1^2")]),
    "lagrangian_family_of_mixed_order": lambda doc: doc.update(
        lagrangians=[lagrangian("A", 1), lagrangian("B", 2)]),
    "leaf_dim_not_an_integer": lambda doc: doc.update(leaf_dim=[0]),
    "leaf_dim_a_fraction": with_leaf_dim(1.5),
    "leaf_dim_a_boolean": with_leaf_dim(True),
    "leaf_dim_a_string": with_leaf_dim("1"),
    "transverse_dim_a_fraction": lambda doc: doc.update(transverse_dim=1.9),
    "lagrangian_order_a_fraction": lambda doc: doc.update(
        lagrangians=[lagrangian("A", 2.7)]),
    "interval_bound_not_a_number":
        lambda doc: doc["charts"][0].update(domain=[[None, 2.0]]),
    "metric_lower_entry_unparsable": with_lower_entry("garbage((("),
    "metric_lower_entry_not_symmetric": with_lower_entry("100*x1"),
    **NUMERIC_BREAKS,
}


def two_chart_doc():
    return {
        "leaf_dim": 0,
        "transverse_dim": 1,
        "charts": [
            {"name": "A", "domain": [[0.5, 2.0]]},
            {"name": "B", "domain": [[0.5, 2.0]]},
        ],
        "transitions": [{
            "name": "A->B", "from": "A", "to": "B",
            "leaf_exprs": [], "transverse_exprs": ["2*x1"],
            "overlap": [[0.5, 1.0]],
        }],
    }


@pytest.mark.parametrize("case", sorted(SCHEMA_BREAKS))
def test_schema_errors_exit_2_without_traceback(tmp_path, case):
    doc = two_chart_doc()
    SCHEMA_BREAKS[case](doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    proc = run_process("-m", "folijet.cli", "validate", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("case", sorted(NUMERIC_BREAKS))
def test_overflowing_metric_certify_exits_2(tmp_path, capsys, case):
    doc = two_chart_doc()
    NUMERIC_BREAKS[case](doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "certify", str(path), "--metric", "g",
                       "--order", "1")
    assert code == 2
    assert err.startswith("error:")


def test_validate_near_singular_fails(capsys, tmp_path):
    doc = {
        "leaf_dim": 0,
        "transverse_dim": 1,
        "charts": [
            {"name": "A", "domain": [[-1.0, 1.0]]},
            {"name": "B", "domain": [[-1.0, 1.0]]},
        ],
        "transitions": [{
            "name": "A->B", "from": "A", "to": "B",
            "leaf_exprs": [], "transverse_exprs": ["x1^2"],
            "overlap": [[-1e-6, 1e-6]],
        }],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path), "--tol-det", "1e-5")
    assert code == 1
    report = json.loads(out)
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "transverse_jacobian_invertible" in failing


def nan_round_trip_atlas(overflow=True):
    """Charts A and B of q = 1, B = A + 10.  With `overflow`, B->A times
    x1^310 by 0: on B's image [10.5, 12] of the overlap the power
    overflows, so every round trip from A is 0*inf, NaN."""
    back = "x1 - 10" + (" + 0*(" + "*".join(["x1"] * 310) + ")"
                        if overflow else "")
    return {
        "leaf_dim": 0,
        "transverse_dim": 1,
        "charts": [{"name": "A", "domain": [[0.5, 2.0]]},
                   {"name": "B", "domain": [[0.0, 20.0]]}],
        "transitions": [
            {"name": f"{a}->{b}", "from": a, "to": b, "leaf_exprs": [],
             "transverse_exprs": [expr], "overlap": [[0.5, 2.0]],
             "inverse_of": f"{b}->{a}"}
            for a, b, expr in (("A", "B", "x1 + 10"), ("B", "A", back))],
    }


def strict_json(text):
    """`json.loads` that rejects the bare NaN and Infinity tokens, which
    RFC 8259 does not allow."""
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("leaf", [False, True], ids=["q", "p-and-q"])
def test_validate_fails_a_nan_round_trip(capsys, tmp_path, leaf):
    # with a leaf coordinate the NaN gap follows an exact one
    doc = nan_round_trip_atlas()
    if leaf:
        with_leaf_dim(1)(doc)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path), "--samples", "5")
    assert code == 1
    failed = [c for c in strict_json(out)["checks"] if not c["pass"]]
    assert [(c["name"], c["context"]) for c in failed] == [
        ("inverse_round_trip", "A->B")]
    assert failed[0]["metric"] == "NaN"
    assert math.isnan(float(failed[0]["metric"]))


def test_prolong_cubic_hand_values(capsys, atlas_dir):
    code, out, _ = run(capsys, "prolong", str(atlas_dir / "cubic.json"),
                       "--transition", "A->B", "--order", "3",
                       "--jet", "u=0;x=1;y1=1")
    assert code == 0
    image = json.loads(out)
    assert image["base"] == [1.0]
    assert image["jets"] == [[3.0], [3.0], [1.0]]


def test_prolong_outside_overlap(capsys, atlas_dir):
    code, _, err = run(capsys, "prolong", str(atlas_dir / "cubic.json"),
                       "--transition", "A->B", "--order", "1",
                       "--jet", "u=0;x=5;y1=1")
    assert code == 2
    assert "error:" in err


def test_prolong_unknown_transition(capsys, atlas_dir):
    code, _, err = run(capsys, "prolong", str(atlas_dir / "cubic.json"),
                       "--transition", "A->Z", "--order", "1",
                       "--jet", "x=1")
    assert code == 2


def test_prolong_bad_jet_spec(capsys, atlas_dir):
    code, _, err = run(capsys, "prolong", str(atlas_dir / "cubic.json"),
                       "--transition", "A->B", "--order", "1",
                       "--jet", "x=1;zz=3")
    assert code == 2
    assert "zz" in err


def test_semispray_named_lagrangian(capsys, atlas_dir):
    code, out, _ = run(capsys, "semispray", str(atlas_dir / "cubic.json"),
                       "--lagrangian", "flat2",
                       "--jet", "u=0;x=1;y1=0.9;y2=0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"][0] == pytest.approx(-0.9 / 6.0)
    # --order must name the lagrangian's own order, not be dropped
    code, same, _ = run(capsys, "semispray", str(atlas_dir / "cubic.json"),
                        "--lagrangian", "flat2", "--order", "2",
                        "--jet", "u=0;x=1;y1=0.9;y2=0.2")
    assert (code, same) == (0, out)
    # --chart picks a presentation of the family, by default the first
    code, same, _ = run(capsys, "semispray", str(atlas_dir / "cubic.json"),
                        "--lagrangian", "flat2", "--chart", "A",
                        "--jet", "u=0;x=1;y1=0.9;y2=0.2")
    assert (code, same) == (0, out)
    assert payload["point"]["chart"] == "A"
    code, out, err = run(capsys, "semispray", str(atlas_dir / "cubic.json"),
                         "--lagrangian", "flat2", "--order", "3",
                         "--jet", "x=1;y1=0.5")
    assert (code, out) == (2, "")
    assert err == "error: lagrangian 'flat2' has order 2, got --order 3\n"
    for chart in ("Nope", "B"):
        code, out, err = run(capsys, "semispray",
                             str(atlas_dir / "cubic.json"),
                             "--lagrangian", "flat2", "--chart", chart,
                             "--jet", "x=5;y1=1;y2=0.2")
        assert (code, out) == (2, "")
        assert err == (f"error: lagrangian 'flat2' has no presentation in "
                       f"chart '{chart}'\n")


def test_semispray_evaluates_the_presentation_in_its_chart(capsys, tmp_path):
    doc = two_chart_doc()
    # S = y1 (y2 - 1) / (6 x1) for chart B's presentation at order 2
    doc["lagrangians"] = [lagrangian("A", 2, "y1_1^2 + y2_1^2"),
                          lagrangian("B", 2, "y1_1^2 + x1*y2_1^2")]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    jet = "x=2;y1=0.9;y2=0.2"
    for chart, want in (("A", -0.9 / 6.0), ("B", 0.9 * (0.2 - 1.0) / 12.0)):
        code, out, _ = run(capsys, "semispray", str(path), "--lagrangian",
                           "L", "--chart", chart, "--jet", jet)
        assert code == 0
        payload = json.loads(out)
        assert payload["point"]["chart"] == chart
        assert payload["components"][0] == pytest.approx(want)


def test_semispray_metric_lift(capsys, atlas_dir):
    code, out, _ = run(capsys, "semispray", str(atlas_dir / "plane.json"),
                       "--metric", "expo", "--order", "1", "--chart", "O",
                       "--jet", "x=0.5;y1=0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"][0] == pytest.approx(0.8 ** 2 / 8.0)
    # an empty --chart names no presentation; it does not pick the first
    code, _, err = run(capsys, "semispray", str(atlas_dir / "plane.json"),
                       "--metric", "expo", "--order", "1", "--chart", "",
                       "--jet", "x=0.5;y1=0.8")
    assert code == 2
    assert "has no presentation in chart ''" in err


def test_cli_import_leaves_sympy_out():
    proc = run_process("-c", "import sys, folijet.cli; "
                       "assert 'sympy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_certify_generates_no_dataclass_code(atlas_dir):
    # a start-up guard: the records are plain classes, so a whole certify
    # never imports dataclasses, whose decorations cost 14-29 ms a process
    atlas = str(atlas_dir / "cubic.json")
    proc = run_process("-c", "import sys, folijet.cli; "
                       f"argv = ['certify', {atlas!r}, '--metric', 'g', "
                       "'--order', '1', '--samples', '2']; "
                       "assert folijet.cli.main(argv) == 0; "
                       "assert 'dataclasses' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_certify_and_validate_leave_numpy_random_out(atlas_dir):
    # the sampled checks draw from SplitMix64 streams in plain numpy
    # arithmetic; numpy.random would bring secrets, hmac and OpenSSL with it
    argvs = [["certify", str(atlas_dir / "cubic.json"), "--metric", "g",
              "--order", "1", "--samples", "2"],
             ["validate", str(atlas_dir / "triple.json")]]
    proc = run_process("-c", "import sys, folijet.cli; "
                       f"assert all(folijet.cli.main(a) == 0 "
                       f"for a in {argvs!r}); "
                       "got = {'numpy.random', 'secrets', 'hashlib'} "
                       "& set(sys.modules); "
                       "assert not got, got")
    assert proc.returncode == 0, proc.stderr


def test_lift_emits_programs(capsys, atlas_dir):
    code, out, _ = run(capsys, "lift", str(atlas_dir / "plane.json"),
                       "--metric", "flat", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    chart = payload["charts"]["O"]
    assert "y1_1" in chart["lagrangian"] and "y2_1" in chart["lagrangian"]
    assert len(chart["connection"]) == 2


def test_certify_cubic_passes(capsys, atlas_dir):
    code, out, _ = run(capsys, "certify", str(atlas_dir / "cubic.json"),
                       "--metric", "g", "--order", "2", "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["failed"] == 0
    names = {c["name"] for c in report["checks"]}
    assert {"holonomy", "projector_sum", "diagonal_hamiltonian",
            "zero_section_restriction", "vertical_exactness"} <= names


def test_validate_shear2_passes(capsys, atlas_dir):
    code, out, _ = run(capsys, "validate", str(atlas_dir / "shear2.json"))
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_certify_shear2_passes(capsys, atlas_dir):
    code, out, _ = run(capsys, "certify", str(atlas_dir / "shear2.json"),
                       "--metric", "g", "--order", "2", "--samples", "1")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_certify_shear2_order_3_passes(atlas_dir):
    # q = 2 at r = 3: the chain and the projectors on two-group-per-stage
    # series, end to end in a fresh interpreter
    proc = run_process("-m", "folijet.cli", "certify",
                       str(atlas_dir / "shear2.json"), "--metric", "g",
                       "--order", "3", "--samples", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["checks"]
    assert all(c["pass"] for c in report["checks"])


def test_certify_shear2_order_4_within_ten_seconds(atlas_dir):
    # q = 2 at r = 4 end to end: the chain's warm-started stages keep it
    # inside the 10 s bound, which 3^r evaluations of L per call overrun
    start = time.perf_counter()
    proc = run_process("-m", "folijet.cli", "certify",
                       str(atlas_dir / "shear2.json"), "--metric", "g",
                       "--order", "4", "--samples", "3")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert all(c["pass"] for c in json.loads(proc.stdout)["checks"])
    assert elapsed <= 10.0


def _q3_atlas(tmp_path, invariant=True, scale=None):
    """A q = 3 atlas: chart B is chart A moved by the translation
    x -> x + 1, and g_B is METRIC_Q3 pushed forward (or, not invariant,
    METRIC_Q3 itself); with `scale`, both metrics times that constant."""
    from test_riemann import METRIC_Q3

    entries = [[p.source if scale is None else f"{scale}*({p.source})"
                for p in row] for row in METRIC_Q3.components]
    pushed = [[re.sub(r"x(\d)", r"(x\1 - 1)", e) for e in row]
              for row in entries]
    boxes = {"A": [[0.2, 1.2]] * 3, "B": [[1.2, 2.2]] * 3}
    doc = {
        "leaf_dim": 1, "transverse_dim": 3,
        "charts": [{"name": c, "domain": [[0.0, 1.0]] + box}
                   for c, box in boxes.items()],
        "transitions": [
            {"name": f"{a}->{b}", "from": a, "to": b, "leaf_exprs": ["u1"],
             "transverse_exprs": [f"x{i} {sign} 1" for i in (1, 2, 3)],
             "overlap": [[0.0, 1.0]] + boxes[a], "inverse_of": f"{b}->{a}"}
            for a, b, sign in (("A", "B", "+"), ("B", "A", "-"))],
        "metrics": [{"name": "g", "chart": "A", "components": entries},
                    {"name": "g", "chart": "B",
                     "components": pushed if invariant else entries}],
    }
    path = tmp_path / (("q3" if invariant else "q3_bad")
                       + ("" if scale is None else f"_{scale}") + ".json")
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_q3_end_to_end(capsys, tmp_path):
    # q = 3: the spray Jacobian's algebra runs in ((9, 1),) at r = 2
    for extra in (["--order", "2"], ["--order", "3", "--samples", "5"]):
        code, out, err = run(capsys, "certify", _q3_atlas(tmp_path),
                             "--metric", "g", *extra)
        assert code == 0, err
        assert all(c["pass"] for c in json.loads(out)["checks"])
    code, out, _ = run(capsys, "certify", _q3_atlas(tmp_path, False),
                       "--metric", "g", "--order", "2", "--samples", "5")
    assert code == 1
    failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert failed == {"holonomy"}


def test_certify_q3_metric_at_a_small_scale(capsys, tmp_path):
    # eigenvalues 1e-4 to 3.4e-4, condition <= 3.3: regular at any scale
    path = _q3_atlas(tmp_path, scale=1e-4)
    assert run(capsys, "validate", path)[0] == 0
    for order in ("1", "2"):
        code, out, err = run(capsys, "certify", path, "--metric", "g",
                             "--order", order, "--samples", "5")
        assert code == 0, err
        assert all(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_certify_without_samples_exits_2(capsys, atlas_dir, samples):
    code, out, err = run(capsys, "certify", str(atlas_dir / "cubic.json"),
                         "--metric", "g", "--order", "1", "--samples",
                         samples)
    assert code == 2 and not out
    assert err == "error: need samples >= 1\n"


def test_certify_negative_control(capsys, atlas_dir):
    code, out, _ = run(capsys, "certify", str(atlas_dir / "cubic.json"),
                       "--metric", "g_bad", "--order", "2", "--samples", "10")
    assert code == 1
    report = json.loads(out)
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "holonomy" in failing


def test_certify_fails_a_metric_missing_from_a_chart(capsys, tmp_path,
                                                    atlas_dir):
    doc = json.loads((atlas_dir / "cubic.json").read_text())
    doc["metrics"] = [m for m in doc["metrics"]
                      if (m["name"], m["chart"]) == ("g", "A")]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", str(path), "--metric", "g",
                       "--order", "2", "--samples", "5")
    assert code == 1
    failed = [(c["name"], c["context"], c["metric"])
              for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == [("holonomy", "A->B (no presentation in chart B)", 1.0),
                      ("holonomy", "B->A (no presentation in chart B)", 1.0)]


def test_certify_deterministic(tmp_path, atlas_dir, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["certify", str(atlas_dir / "cubic.json"),
                     "--metric", "g", "--order", "1", "--samples", "10",
                     "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_env_default(capsys, atlas_dir, monkeypatch):
    atlas = str(atlas_dir / "cubic.json")
    monkeypatch.setenv("FOLIJET_SEED", "42")
    code, out, _ = run(capsys, "validate", atlas)
    assert code == 0
    assert json.loads(out)["seed"] == 42
    # a seed that is no integer is an input error, not seed 0
    monkeypatch.setenv("FOLIJET_SEED", "abc")
    code, out, err = run(capsys, "certify", atlas, "--metric", "g",
                         "--order", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "FOLIJET_SEED" in err
    assert "Traceback" not in err
    # --seed overrides the variable, good or bad
    code, out, _ = run(capsys, "validate", atlas, "--seed", "7")
    assert code == 0
    assert json.loads(out)["seed"] == 7
    # a negative seed is an input error that names where it came from
    code, out, err = run(capsys, "certify", atlas, "--metric", "g",
                         "--order", "2", "--seed", "-5")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -5\n"
    monkeypatch.setenv("FOLIJET_SEED", "-5")
    code, out, err = run(capsys, "validate", atlas)
    assert (code, out) == (2, "")
    assert err == ("error: FOLIJET_SEED must be a non-negative integer, "
                   "got -5\n")


@pytest.mark.parametrize("source", ["--seed", "FOLIJET_SEED"])
def test_seed_must_be_below_2_to_the_64(capsys, atlas_dir, monkeypatch,
                                        source):
    # the sample streams key on the seed modulo 2^64: 2^64 would be seed 0
    atlas = str(atlas_dir / "cubic.json")
    for seed, want in ((2 ** 64, 2), (2 ** 64 - 1, 0)):
        if source == "--seed":
            argv = ["--seed", str(seed)]
        else:
            argv = []
            monkeypatch.setenv("FOLIJET_SEED", str(seed))
        code, out, err = run(capsys, "certify", atlas, "--metric", "g",
                             "--order", "1", "--samples", "3", *argv)
        assert code == want, err
        if want:
            assert (out, err) == (
                "", f"error: {source} must be below 2^64, got {seed}\n")
        else:
            assert json.loads(out)["seed"] == seed


TOLERANCE_FLAGS = [("validate", flag) for flag in
                   ("--tol-det", "--tol-roundtrip", "--tol-cocycle")] + [
    ("certify", flag) for flag in
    ("--tol-det", "--tol-roundtrip", "--tol-cocycle", "--tol-projector",
     "--tol-holonomy", "--tol-exactness", "--tol-hamiltonian")]


@pytest.mark.parametrize("verb", ["validate", "certify"])
def test_tolerance_defaults_are_the_library_constants(verb):
    argv = [verb, "a.json"] + (["--metric", "g", "--order", "1"]
                               if verb == "certify" else [])
    args = build_parser().parse_args(argv)
    want = dict(det=DET_TOLERANCE, roundtrip=ROUNDTRIP_TOLERANCE,
                cocycle=COCYCLE_TOLERANCE)
    if verb == "certify":
        want.update(projector=PROJECTOR_TOLERANCE,
                    holonomy=HOLONOMY_TOLERANCE,
                    exactness=EXACTNESS_TOLERANCE,
                    hamiltonian=HAMILTONIAN_TOLERANCE)
    got = {k[len("tol_"):]: v for k, v in vars(args).items()
           if k.startswith("tol_")}
    assert got == want


@pytest.mark.parametrize("verb,flag", TOLERANCE_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e-3x"])
def test_tolerance_must_be_finite(capsys, atlas_dir, verb, flag, value):
    # a non-finite tolerance would put a bare NaN or Infinity in the report
    argv = [verb, str(atlas_dir / "cubic.json"), f"{flag}={value}"]
    if verb == "certify":
        argv += ["--metric", "g", "--order", "1"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    # argparse's usage block, then exactly one error line naming the flag
    assert err.startswith(f"usage: folijet {verb} ")
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"folijet {verb}: error: argument {flag}: must be a finite number, "
        f"got {value!r}"]


def test_unknown_metric(capsys, atlas_dir):
    code, _, err = run(capsys, "lift", str(atlas_dir / "cubic.json"),
                       "--metric", "nope", "--order", "1")
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("script", ["lift_demo.py", "certify_cubic.py"])
def test_lift_demo_runs(script):
    proc = run_process(str(ROOT / "scripts" / script))
    assert proc.returncode == 0, proc.stderr


def test_compare_reports_exit_codes(tmp_path, atlas_dir):
    reports = {}
    for metric in ("g", "g_bad"):
        reports[metric] = tmp_path / f"{metric}.json"
        main(["certify", str(atlas_dir / "cubic.json"), "--metric", metric,
              "--order", "1", "--samples", "3", "--out",
              str(reports[metric])])
    script = str(ROOT / "scripts" / "compare_reports.py")
    same = run_process(script, str(reports["g"]), str(reports["g"]))
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines()[0] == "files byte-identical"
    assert "lists equal" in same.stdout
    assert "holonomy: largest metric change 0.000e+00" in same.stdout
    # the same report laid out otherwise: equal lists, other bytes
    relaid = tmp_path / "relaid.json"
    relaid.write_text(json.dumps(json.loads(reports["g"].read_text())))
    moved = run_process(script, str(reports["g"]), str(relaid))
    assert moved.returncode == 0, moved.stderr
    assert moved.stdout.splitlines()[0] == "files differ in bytes"
    assert "lists equal" in moved.stdout
    differ = run_process(script, str(reports["g"]), str(reports["g_bad"]))
    assert differ.returncode == 1
    assert differ.stdout.splitlines()[0] == "files differ in bytes"
    assert "lists differ" in differ.stdout
    # a NaN metric is the string "NaN", which the script reads back
    for name, overflow in (("nan", True), ("exact", False)):
        path = tmp_path / f"{name}_atlas.json"
        path.write_text(json.dumps(nan_round_trip_atlas(overflow)))
        reports[name] = tmp_path / f"{name}.json"
        main(["validate", str(path), "--samples", "5", "--out",
              str(reports[name])])
    nan_same = run_process(script, str(reports["nan"]), str(reports["nan"]))
    assert nan_same.returncode == 0, nan_same.stderr
    assert "inverse_round_trip: largest metric change 0.000e+00" \
        in nan_same.stdout
    nan_differ = run_process(script, str(reports["exact"]),
                             str(reports["nan"]))
    assert nan_differ.returncode == 1, nan_differ.stderr
    assert "inverse_round_trip: largest metric change inf" \
        in nan_differ.stdout
    (tmp_path / "bad.json").write_text("{not json")
    for argv in ([str(reports["g"])], [str(reports["g"]),
                                       str(tmp_path / "bad.json")],
                 [str(reports["g"]), str(tmp_path / "missing.json")]):
        proc = run_process(script, *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def _plane_with_metric(tmp_path, entry):
    doc = json.loads((ROOT / "atlases" / "plane.json").read_text())
    doc["metrics"] = [{"name": "deep", "chart": "O",
                       "components": [[entry]]}]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    return str(path)


LONG_SUM = "1" + "+0*x1" * 1200


def test_validate_long_sum_metric_passes(tmp_path):
    proc = run_process("-m", "folijet.cli", "validate",
                       _plane_with_metric(tmp_path, LONG_SUM))
    assert proc.returncode == 0, proc.stderr


def test_certify_long_sum_metric_exits_without_traceback(tmp_path):
    proc = run_process("-m", "folijet.cli", "certify",
                       _plane_with_metric(tmp_path, LONG_SUM),
                       "--metric", "deep", "--order", "2", "--samples", "2")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == 0


def test_lift_of_a_long_sum_metric_exits_0(tmp_path):
    # the printed lagrangian nests one sum per term, 1500 deep
    entry = "2" + "".join(f" + 0.001*sin({k}*x1)" for k in range(1, 1500))
    proc = run_process("-m", "folijet.cli", "lift",
                       _plane_with_metric(tmp_path, entry),
                       "--metric", "deep", "--order", "1")
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout)["charts"]["O"]["lagrangian"]
    env = {"x1": 0.3, "y1_1": 0.5}
    assert parse(printed).eval(env) == pytest.approx(
        0.25 * parse(entry).eval(env), rel=1e-14)


def test_overflowing_jet_semispray_exits_2_with_one_error_line():
    # the overflow is one DomainError: numpy warns of none of its steps
    proc = run_process("-m", "folijet.cli", "semispray",
                       str(ROOT / "atlases" / "cubic.json"), "--metric", "g",
                       "--order", "2", "--chart", "B",
                       "--jet", "x=1e308;y1=1e308")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_deeply_nested_parentheses_exit_2(tmp_path):
    entry = "(" * 2000 + "1" + ")" * 2000
    proc = run_process("-m", "folijet.cli", "validate",
                       _plane_with_metric(tmp_path, entry))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("atlas_name,metric,code",
                         [("shear2", "g", 0), ("cubic", "g_bad", 1)])
def test_child_process_writes_its_whole_report(capsys, atlas_dir, atlas_name,
                                               metric, code):
    argv = ["certify", str(atlas_dir / f"{atlas_name}.json"),
            "--metric", metric, "--order", "2", "--samples", "3"]
    proc = subprocess.run([sys.executable, "-m", "folijet.cli", *argv],
                          capture_output=True, env=buffered_env(),
                          timeout=300)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == b""
    assert main(argv) == code
    assert proc.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    # buffered, a report that fits the stdout buffer fails at the last
    # flush and one larger than the buffer fails inside `main`
    ["certify", "cubic.json", "--metric", "g", "--order", "2",
     "--samples", "3"],
    ["lift", "shear2.json", "--metric", "g", "--order", "2"],
], ids=["certify", "lift"])
def test_closed_stdout_exits_2_with_one_error_line(atlas_dir, argv,
                                                   unbuffered):
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [argv[0], str(atlas_dir / argv[1]), *argv[2:]]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "folijet.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_child_process_started_without_stdout_keeps_its_exit_code(atlas_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "folijet.cli", "certify",
         str(atlas_dir / "cubic.json"), "--metric", "g", "--order", "1",
         "--samples", "2"],
        stderr=subprocess.PIPE, text=True, env=buffered_env(), timeout=300,
        preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# -- the exit contract under mutated atlas documents ----------------------

SHIPPED_ATLASES = [json.loads(path.read_text())
                   for path in sorted((ROOT / "atlases").glob("*.json"))]

OTHER_JSON_VALUES = [None, True, 0, -3, 2.5, 1e308, "x1", "", [], [[]],
                     [[0.5, 2.0]], [["1"]], {}, {"name": "A"}]

EXPRESSION_POOL = [
    "exp(1000*x1)", "x1^400", "1e200*1e200*x1 + 1", "1/(x1 - x1)",
    "1/(x1 - 1)", "log(-1 - x1^2)", "sqrt(-1 - x1^2)", "x1^(-400)",
    "(" * 150 + "x1" + ")" * 150, "u1 + x1", "x9", "y1_1", "p_1", "z",
    "x1 +", "sin(", "foo(x1)", "", "2**3", "0",
]


def _slots(node):
    """Every (container, key) inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated_atlases(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_ATLASES)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        kind = draw(st.sampled_from(["delete", "retype", "expression"]))
        if kind == "delete":
            del node[key]
        elif kind == "retype":
            kept = type(node[key])
            node[key] = copy.deepcopy(draw(st.sampled_from(
                [v for v in OTHER_JSON_VALUES if type(v) is not kept])))
        else:
            node[key] = draw(st.sampled_from(EXPRESSION_POOL))
    return doc


@settings(max_examples=600, derandomize=True, deadline=None)
@given(mutated_atlases())
def test_validate_exit_contract_under_mutation(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "atlas.json"
    path.write_text(json.dumps(doc))
    # any exception escaping main fails the test
    assert main(["validate", str(path), "--samples", "3"]) in (0, 1, 2)


# metric entries that parse and bind but are tiny, huge, steep, wavy,
# singular or indefinite somewhere, so certify reaches the lift and chain
METRIC_ENTRIES = [
    "1e-12", "1e12*x1^2 + 1", "exp(x1)", "exp(-30*x1)", "1 + x1^2",
    "sin(40*x1) + 1.5", "x1^(-3)", "1/(x1 - 0.7)", "1 + 1e8*x1^4",
    "cos(x1)", "0.999", "-0.999", "x1", "0",
]


@st.composite
def mutated_metrics(draw):
    """A shipped atlas with one or two metric entries replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(
        [atlas for atlas in SHIPPED_ATLASES if "metrics" in atlas])))
    entries = [(row, k) for metric in doc["metrics"]
               for row in metric["components"] for k in range(len(row))]
    for _ in range(draw(st.integers(1, 2))):
        row, k = draw(st.sampled_from(entries))
        row[k] = draw(st.sampled_from(METRIC_ENTRIES))
    return doc


def _certify_exit_codes(tmp_path_factory, doc, order):
    path = tmp_path_factory.mktemp("fuzz") / "atlas.json"
    path.write_text(json.dumps(doc))
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    names = dict.fromkeys(
        m["name"] for m in metrics
        if isinstance(m, dict) and isinstance(m.get("name"), str)) \
        if isinstance(metrics, list) else {}
    # any exception escaping main fails the test
    return {main(["certify", str(path), "--metric", name,
                  "--order", str(order), "--samples", "2",
                  "--out", str(path.with_suffix(".report.json"))])
            for name in names or ["g"]}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(mutated_atlases())
def test_certify_exit_contract_under_mutation(tmp_path_factory, doc):
    assert _certify_exit_codes(tmp_path_factory, doc, 1) <= {0, 1, 2}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutated_metrics())
def test_certify_exit_contract_under_metric_mutation(tmp_path_factory, doc):
    # order 2, so the chain hands a shifted guess to its inner stage
    assert _certify_exit_codes(tmp_path_factory, doc, 2) <= {0, 1, 2}


# (atlas, metric, coordinate maps, permutation) of `recoordinatize`; the
# q = 3 atlases are `_q3_atlas` and its control, which certify at fewer
# samples
RECOORDINATIZED = {
    "cubic_g_exp": ("cubic", "g", ["exp"], [0]),
    "cubic_g_flip": ("cubic", "g", ["flip"], [0]),
    "cubic_g_bad_cube": ("cubic", "g_bad", ["cube"], [0]),
    "shear2_exp_affine_swapped": ("shear2", "g", ["exp", "affine"], [1, 0]),
    "shear2_affine_flip": ("shear2", "g", ["affine", "flip"], [0, 1]),
    "q3_exp_affine_flip": ("q3", "g", ["exp", "affine", "flip"], [2, 0, 1]),
    "q3_cube_exp_affine": ("q3", "g", ["cube", "exp", "affine"], [1, 2, 0]),
    "q3_bad_exp_affine_flip":
        ("q3_bad", "g", ["exp", "affine", "flip"], [2, 0, 1]),
    "q3_bad_cube_exp_affine":
        ("q3_bad", "g", ["cube", "exp", "affine"], [1, 2, 0]),
}


@pytest.mark.parametrize("case", sorted(RECOORDINATIZED))
def test_certify_is_the_same_in_other_transverse_coordinates(
        capsys, tmp_path, atlas_dir, case):
    name, metric, maps, perm = RECOORDINATIZED[case]
    if name.startswith("q3"):
        original, samples = _q3_atlas(tmp_path, name == "q3"), "5"
    else:
        original, samples = atlas_dir / f"{name}.json", "10"
    rewritten = tmp_path / f"{case}.json"
    rewritten.write_text(json.dumps(recoordinatize(
        json.loads(pathlib.Path(original).read_text()), maps, perm)))

    def certify(path, r):
        code, out, _ = run(capsys, "certify", str(path), "--metric", metric,
                           "--order", str(r), "--samples", samples,
                           "--seed", "3")
        return code, [(c["name"], c["context"], c["pass"])
                      for c in json.loads(out)["checks"]]

    for r in (1, 2, 3):
        want = certify(original, r)
        assert want[0] == (1 if "bad" in case else 0)
        assert certify(rewritten, r) == want
