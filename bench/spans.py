"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one timed call into a layer, named ``<layer>.<operation>``
(``legendre.chain_eval``, ``jets.prolong_transition``).  Spans named
``bench.*`` group the benchmark's own work (set-up, one pass over the
samples) and are the roots that define the traced wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

BENCH_LAYER = "bench"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorder's list

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [self.name, self.start, self.end, self.parent]

    @classmethod
    def from_list(cls, item):
        return cls(*item)


class Recorder:
    """Records spans in memory; nothing is written until the caller asks."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = self._clock()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    @contextmanager
    def group(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()


class NullRecorder:
    """Same interface as Recorder, records nothing: the untraced baseline."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def group(self, name):
        yield


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_self_seconds(spans):
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s.layer] += own
    return dict(out)


def traced_wall(spans):
    """Sum of the root spans' durations: the wall time under tracing."""
    return sum(s.duration for s in spans if s.parent is None)


def coverage(spans):
    """Share of the traced wall time spent inside layer (non-bench) spans."""
    wall = traced_wall(spans)
    if wall <= 0.0:
        return 0.0
    own = layer_self_seconds(spans)
    return sum(v for layer, v in own.items() if layer != BENCH_LAYER) / wall


def durations(spans, name):
    return [s.duration for s in spans if s.name == name]
