"""Timings scaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to a third over minutes, and fillgeo slows with it.  Timed steps
are therefore bracketed by runs of ``reference_s``, a fixed pure-Python
loop that does not touch fillgeo, and scaled by ``REFERENCE_S`` over
the mean of the two: the result reads as seconds on a machine where
the loop takes ``REFERENCE_S``.  A change to fillgeo moves the scaled
time as much as the raw time; a change in the speed of the host moves
both the step and the loop, and cancels.
"""

import statistics
from time import perf_counter

# about the loop's time on one core of the 2-CPU x86-64 machine the
# baseline was taken on, with CPython 3.11
REFERENCE_S = 0.012
STEPS = 100_000
# a single run of the loop now and then takes up to three times as long,
# and one such run next to a long step would skew it, so each reading is
# the median of this many runs
RUNS = 3
# steps shorter than this share the readings around their group
GAP_S = 0.5


def loop_s():
    """Seconds one run of the reference loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(STEPS):
        total += i * i % 7
    return perf_counter() - start


def reference_s():
    """The reference loop's time now: the median of RUNS runs."""
    return statistics.median(loop_s() for _ in range(RUNS))


def scaled(seconds, before, after):
    """``seconds`` at the reference speed, given the loop's times around them."""
    return seconds * 2 * REFERENCE_S / (before + after)
