"""The CPU's current pace, for scaling timings to one reference speed.

On a shared host the speed of the same code drifts by up to 1.7x over
minutes, so raw wall times of one program differ more between runs than a
regression bound allows.  Every end-to-end timing is therefore measured
together with a fixed pure-Python loop, run in the same process as the
timed work where possible, right before and right after it; each of
these is the median of five short passes, so that a momentary stall of
one pass does not count.  ``scaled`` turns the timing into seconds at the
reference speed: the speed at which one pass takes ``REFERENCE_S``.  A
program that gets 20% faster reads 20% lower; a host that slows down
moves it far less than the time as measured.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.05  # one pass of the loop at the reference speed
LOOP_ITERATIONS = 500_000
PASSES = 5


def _one_pass():
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def loop_seconds():
    """Median wall time of ``PASSES`` passes of the reference loop."""
    return statistics.median(_one_pass() for _ in range(PASSES))


def scaled(seconds, before, after):
    """``seconds`` of work at the reference speed, given the loop's times
    right before and right after the work."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
