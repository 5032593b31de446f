#!/usr/bin/env python3
"""Compare two `folijet certify` (or `validate`) JSON reports.

Usage::

    python3 scripts/compare_reports.py A.json B.json

Prints first whether the two files are byte-identical, then whether the
reports list the same checks, as (name, context, pass) triples in order,
and then, check by check, the largest change in the metric between the
two.  Exits 0 when the lists are equal, 1 when they differ and 2 when a
file cannot be read or is not a report.
"""

import json
import math
import sys


def _checks(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return [(c["name"], c["context"], c["pass"], float(c["metric"]))
            for c in doc["checks"]]


def _bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    # a metric that turned NaN on one side changed without bound
    return math.inf if math.isnan(a) or math.isnan(b) else abs(a - b)


def main(argv):
    if len(argv) != 2:
        print("usage: compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    try:
        first, second = map(_checks, argv)
        identical = _bytes(argv[0]) == _bytes(argv[1])
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"files {'byte-identical' if identical else 'differ in bytes'}")
    same = [c[:3] for c in first] == [c[:3] for c in second]
    print(f"(name, context, pass) lists {'equal' if same else 'differ'}: "
          f"{len(first)} and {len(second)} checks")
    largest = {}
    for a, b in zip(first, second):
        if a[:2] == b[:2]:
            key = a[0]
            largest[key] = max(largest.get(key, 0.0), _change(a[3], b[3]))
    for name, change in largest.items():
        print(f"  {name}: largest metric change {change:.3e}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
