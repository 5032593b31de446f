import json
import math

import pytest

from folijet import __version__
from folijet.report import Report


def test_rows_verdicts_and_summary():
    report = Report(seed=7)
    report.add("gap", "A->B", 1e-9, 1e-7)
    report.add("gap", "B->A", 2e-7, 1e-7)
    report.add("ratio", "L", 0.5, 1e-12, direction=">")
    report.add("ratio", "L'", 0.0, 0.0, direction=">")
    report.add("gap", "nan", float("nan"), 1.0)
    report.add("bound", "up", math.inf, 0.0, direction=">")
    report.add("bound", "down", -math.inf, 0.0)
    assert report.checks[:2] == [
        {"name": "gap", "context": "A->B", "metric": 1e-9,
         "tolerance": 1e-7, "direction": "<=", "pass": True},
        {"name": "gap", "context": "B->A", "metric": 2e-7,
         "tolerance": 1e-7, "direction": "<=", "pass": False}]
    assert [c["pass"] for c in report.checks] == [
        True, False, True, False, False, True, True]
    assert not report.passed

    doc = json.loads(report.to_json())
    assert (doc["tool_version"], doc["seed"]) == (__version__, 7)
    assert doc["summary"] == {"total": 7, "passed": 4, "failed": 3}
    assert [c["metric"] for c in doc["checks"][4:]] == [
        "NaN", "Infinity", "-Infinity"]
    assert all(type(c["metric"]) is float for c in report.checks)
    assert doc["checks"][:4] == report.checks[:4]


def test_extend_appends_the_rows_and_an_empty_report_passes():
    report, other = Report(), Report()
    assert report.passed
    assert report.to_dict()["summary"] == {"total": 0, "passed": 0,
                                           "failed": 0}
    other.add("gap", "A", 0.0, 0.0)
    assert report.extend(other) is report
    assert report.checks == other.checks and report.passed


def test_unknown_direction_is_refused():
    report = Report()
    with pytest.raises(ValueError, match="unknown direction '<'"):
        report.add("gap", "A", 0.0, 1.0, direction="<")
    assert report.checks == []
