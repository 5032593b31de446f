"""Correctness gate for ``folijet certify`` reports.

An invocation passes when its exit code is the expected one, its report's
list of (check name, context, passed) equals the list stored in
``expected/<workload>.json``, and its report text is byte-identical to
every other report of the same invocation in the run (equal seeds must
give equal reports).  Metric values are not pinned: rounding may change.
"""

from __future__ import annotations

import json
import os

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")


def load_expected(workload):
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def problems(expected, rc, report_text, seed):
    """Reasons this one invocation's outcome is wrong; empty when correct."""
    out = []
    if rc != expected["exit"]:
        out.append(f"exit code {rc}, expected {expected['exit']}")
    try:
        doc = json.loads(report_text)
        checks = [[c["name"], c["context"], c["pass"]] for c in doc["checks"]]
    except (ValueError, KeyError, TypeError) as err:
        return out + [f"unreadable report: {err}"]
    if doc.get("seed") != seed:
        out.append(f"report seed {doc.get('seed')!r}, expected {seed}")
    if checks != expected["checks"]:
        out.append("check list differs from the stored list")
    failed = sum(1 for c in checks if not c[2])
    if doc.get("summary", {}).get("failed") != failed:
        out.append("summary disagrees with the checks")
    return out


class Gate:
    """Checks every invocation of one workload run and counts the failures."""

    def __init__(self, workload, seed):
        self.expected = load_expected(workload)
        self.seed = seed
        self.first = {}  # label -> first report text seen
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, label, rc, report_text, where):
        self.attempted += 1
        found = problems(self.expected[label], rc, report_text, self.seed)
        reference = self.first.setdefault(label, report_text)
        if report_text != reference:
            found.append("report differs from an earlier run with the same "
                         "seed")
        if found:
            self.failed += 1
            self.messages.append(f"{label} ({where}): " + "; ".join(found))
        return not found

    def fail(self, label, message):
        """Count an invocation that produced no report at all."""
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{label}: {message}")
