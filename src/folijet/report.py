"""Machine-readable check reports.

A Report is a flat list of named checks, each carrying the measured
deviation (or eigenvalue), its tolerance and a pass flag.  Serialization
is deterministic so that equal-seed runs diff byte-for-byte, and is
RFC 8259 JSON: a non-finite number is written as the string "NaN",
"Infinity" or "-Infinity", which `float()` reads back.  Quantities that
carry a metric's scale or a chart's units are compared by `relative_gap`,
so no verdict moves with either (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, ch. 1-2).  Both are plain
classes compared by identity; a Check is treated as immutable, and a
Report grows only through `add` and `extend`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__

__all__ = ["Report", "relative_gap", "worst"]


def worst(start, values, pick=max):
    """`pick` over `start` and `values`, or NaN when any of them is NaN, so
    that a NaN deviation fails its check.  `values` may be one float or a
    batch."""
    values = [start, *np.ravel(values).tolist()]
    return float("nan") if np.isnan(values).any() else pick(values)


def relative_gap(a, b, axis=-1, size=None):
    """Per sample, the largest |a - b| over `axis` relative to a size: by
    default the largest |a| or |b| there, else each entry's own `size` (a
    box's widths, say).  0 where the gap is 0, inf where only the size is,
    NaN where any entry is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gap = np.abs(a - b)
    if size is None:
        gap, size, axis = gap.max(axis=axis), np.maximum(
            np.abs(a).max(axis=axis), np.abs(b).max(axis=axis)), ()
    with np.errstate(all="ignore"):
        return np.where(gap == 0, 0.0, gap / size).max(axis=axis)


def _number(value):
    """`value` as JSON can hold it: a finite float, else its string."""
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


class Check:
    __slots__ = ("name", "context", "metric", "tolerance", "passed",
                 "direction")

    def __init__(self, name: str, context: str, metric: float,
                 tolerance: float, passed: bool, direction: str = "<="):
        self.name, self.context = name, context
        self.metric, self.tolerance, self.passed = metric, tolerance, passed
        # ">" for lower bounds (eigenvalue ratios), "<=" for deviations
        self.direction = direction


class Report:
    __slots__ = ("seed", "tool_version", "checks")

    def __init__(self, seed: int = 0):
        self.seed, self.tool_version, self.checks = seed, __version__, []

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
                    "metric": _number(c.metric),
                    "tolerance": _number(c.tolerance),
                    "direction": c.direction,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False)
