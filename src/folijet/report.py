"""Machine-readable check reports.

A Report is a flat list of named checks, each carrying the measured
deviation (or eigenvalue), its tolerance and a pass flag.  Serialization
is deterministic so that equal-seed runs diff byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__

__all__ = ["Check", "Report", "worst"]


def worst(start, values, pick=max):
    """`pick` folded over `start` and then `values` in sample order, as a
    loop of ``start = pick(start, value)`` would: a NaN after the first
    entry is passed over.  `values` may be one float or a batch."""
    return pick([start, *np.ravel(values).tolist()])


@dataclass(frozen=True)
class Check:
    name: str
    context: str
    metric: float
    tolerance: float
    passed: bool
    # ">" for lower bounds (determinants, eigenvalues), "<=" for deviations
    direction: str = "<="


@dataclass
class Report:
    seed: int = 0
    tool_version: str = __version__
    checks: list = field(default_factory=list)

    def add(self, name, context, metric, tolerance, direction="<="):
        if direction == "<=":
            passed = metric <= tolerance
        elif direction == ">":
            passed = metric > tolerance
        else:
            raise ValueError(f"unknown direction {direction!r}")
        self.checks.append(
            Check(name, context, float(metric), float(tolerance), bool(passed),
                  direction)
        )
        return passed

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)
        return self

    @property
    def total(self):
        return len(self.checks)

    @property
    def failed(self):
        return sum(1 for c in self.checks if not c.passed)

    @property
    def passed(self):
        return self.failed == 0

    def summary(self):
        return {
            "total": self.total,
            "passed": self.total - self.failed,
            "failed": self.failed,
        }

    def to_dict(self):
        return {
            "tool_version": self.tool_version,
            "seed": self.seed,
            "checks": [
                {
                    "name": c.name,
                    "context": c.context,
                    "metric": c.metric,
                    "tolerance": c.tolerance,
                    "direction": c.direction,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
