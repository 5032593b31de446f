"""Machine-readable check reports.

A Report is a flat list of named checks, each held as the row its JSON
writes: name, context, the measured deviation (or eigenvalue) as
`metric`, its `tolerance` (both floats), the `direction` of the
comparison ("<=", or ">" for a lower bound) and the `pass` flag.
Serialization is deterministic so that equal-seed runs diff
byte-for-byte, and is RFC 8259 JSON: a non-finite number is written as
the string "NaN", "Infinity" or "-Infinity", which `float()` reads
back.  Quantities that carry a metric's scale or a chart's units are
compared by `relative_gap`, so no verdict moves with either (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
ch. 1-2).  A Report is a plain class compared by identity; it grows
only through `add` and `extend`, and its rows are treated as immutable.
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


class Report:
    __slots__ = ("seed", "checks")

    def __init__(self, seed: int = 0):
        self.seed, self.checks = seed, []

    def add(self, name, context, metric, tolerance, direction="<="):
        if direction == "<=":
            passed = metric <= tolerance
        elif direction == ">":
            passed = metric > tolerance
        else:
            raise ValueError(f"unknown direction {direction!r}")
        self.checks.append({"name": name, "context": context,
                            "metric": float(metric),
                            "tolerance": float(tolerance),
                            "direction": direction, "pass": bool(passed)})

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def to_dict(self):
        total = len(self.checks)
        failed = sum(not c["pass"] for c in self.checks)
        return {"tool_version": __version__, "seed": self.seed,
                "checks": [{**c, "metric": _number(c["metric"]),
                            "tolerance": _number(c["tolerance"])}
                           for c in self.checks],
                "summary": {"total": total, "passed": total - failed,
                            "failed": failed}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False)
