"""Tests of the benchmark's own arithmetic and gate.

Run with ``python3 -m pytest bench``; they need no folijet import.
"""

import ast
import json
import os

import pytest

import gate
import pace
import run
from spans import Recorder, Span, coverage, layer_self_seconds, self_times


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_self_time_subtracts_children():
    rec = Recorder(clock=scripted_clock(0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0,
                                        10.0))
    with rec.group("bench.pass"):              # 0 .. 10
        with rec.group("legendre.chain"):      # 1 .. 4
            rec.call("expr.eval", lambda: None)  # 2 .. 3
        rec.call("jets.prolong", lambda: None)   # 6 .. 7
    names = [s.name for s in rec.spans]
    assert names == ["bench.pass", "legendre.chain", "expr.eval",
                     "jets.prolong"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert self_times(rec.spans) == [6.0, 2.0, 1.0, 1.0]
    assert layer_self_seconds(rec.spans) == {"bench": 6.0, "legendre": 2.0,
                                             "expr": 1.0, "jets": 1.0}


def test_overlapping_children_are_counted_once():
    spans = [Span("bench.pass", 0.0, 10.0, None),
             Span("a.x", 1.0, 4.0, 0),
             Span("a.y", 3.0, 6.0, 0),
             Span("a.z", 9.0, 12.0, 0)]  # clipped to the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_span_closes_when_the_call_raises():
    rec = Recorder(clock=scripted_clock(0.0, 2.0))
    with pytest.raises(ZeroDivisionError):
        rec.call("expr.eval", lambda: 1 / 0)
    assert rec.spans[0].duration == 2.0


def test_coverage_is_layer_time_over_root_wall():
    spans = [Span("bench.setup", 0.0, 4.0, None),
             Span("symbolic.build", 0.5, 3.5, 0),
             Span("bench.pass", 10.0, 16.0, None),  # gap 4..10 is untraced
             Span("legendre.chain_eval", 10.0, 13.0, 2),
             Span("dynamics.projectors", 13.0, 15.0, 2)]
    assert coverage(spans) == pytest.approx((3.0 + 3.0 + 2.0) / 10.0)
    assert coverage([]) == 0.0


def test_scaled_time_is_at_the_reference_speed():
    # the loop ran at half the reference speed, so the work took twice as
    # long as it would at that speed
    slow = 2 * pace.REFERENCE_S
    assert pace.scaled(3.0, slow, slow) == pytest.approx(1.5)
    assert pace.scaled(3.0, pace.REFERENCE_S / 2, 1.5 * pace.REFERENCE_S) \
        == pytest.approx(3.0)


def _report(expected, seed=0, tamper=None):
    checks = [{"name": n, "context": c, "metric": 0.0, "tolerance": 1e-9,
               "direction": "<=", "pass": p} for n, c, p in expected["checks"]]
    if tamper:
        tamper(checks)
    failed = sum(1 for c in checks if not c["pass"])
    doc = {"tool_version": "0.1.0", "seed": seed, "checks": checks,
           "summary": {"total": len(checks), "passed": len(checks) - failed,
                       "failed": failed}}
    return json.dumps(doc, indent=2, sort_keys=True)


def test_gate_accepts_the_stored_outcome():
    g = gate.Gate("cubic-r2-sweep", seed=0)
    for label in ("g", "g_bad"):
        text = _report(g.expected[label])
        assert g.check(label, g.expected[label]["exit"], text, "cold")
        assert g.check(label, g.expected[label]["exit"], text, "warm")
    assert (g.attempted, g.failed) == (4, 0)


def _flip_last(checks):
    checks[-1]["pass"] = not checks[-1]["pass"]


def _rename_context(checks):
    checks[0]["context"] = "Z->A"


def _drop_check(checks):
    checks.pop()


def _pass_holonomy(checks):
    for c in checks:
        c["pass"] = True


@pytest.mark.parametrize("label, tamper, rc", [
    ("g", _flip_last, 1),
    ("g", _rename_context, 0),
    ("g", _drop_check, 0),
    ("g", None, 1),            # right report, wrong exit code
    ("g_bad", _pass_holonomy, 0),
])
def test_gate_rejects_a_tampered_report(label, tamper, rc):
    g = gate.Gate("cubic-r2-sweep", seed=0)
    assert not g.check(label, rc, _report(g.expected[label], tamper=tamper),
                       "cold")
    assert (g.attempted, g.failed) == (1, 1)


def test_gate_rejects_a_report_that_differs_from_an_equal_seed_run():
    g = gate.Gate("shear2-r2", seed=3)
    text = _report(g.expected["g"], seed=3)
    assert g.check("g", 0, text, "cold")
    assert not g.check("g", 0, text.replace('"metric": 0.0',
                                            '"metric": 1e-300', 1), "warm")
    assert not g.check("g", 0, _report(g.expected["g"], seed=4), "warm")


def test_benchmark_json_names_what_run_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    for name in run.WORKLOADS:
        assert set(gate.load_expected(name)) == set(run.WORKLOADS[name].metrics)


def _all_names(module):
    path = os.path.join(run.SRC, "folijet", f"{module}.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_worker_uses_only_public_folijet_names():
    aliases = {"atlas_m": "atlas", "cli": "cli", "dynamics": "dynamics",
               "jets": "jets", "legendre": "legendre", "riemann": "riemann"}
    with open(os.path.join(run.BENCH_DIR, "worker.py"),
              encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert used
    for alias, attr in sorted(used):
        assert attr in _all_names(aliases[alias]), f"{alias}.{attr}"
