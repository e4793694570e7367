"""A fixed slice of pure-Python work that clocks the host.

The benchmark runs on a few cores of a shared machine, whose speed
drifts by up to 2x over seconds to minutes with what its neighbours
run.  The drift moves a sub-millisecond request latency far more than
any bound a benchmark can keep.  Timing this fixed slice between the
phases of a run measures the drift, and :func:`to_reference` brings
each phase's timing to a host that runs one slice in
:data:`REFERENCE_S`.  The slice is the benchmark's own code, so a
change to the program cannot make it faster or slower: it runs with
the garbage collector off (a collection would walk the program's heap)
and between phases, while the program is idle.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import List, Sequence, Tuple

#: Seconds one slice takes on the reference host (a 2-core VM, Intel
#: Xeon at 2.1 GHz, Python 3.11, in its fast mode).  The constant only
#: sets the scale: comparisons between commits divide it out.
REFERENCE_S = 0.002

#: Slices timed per sample; the sample is their median.
SLICES = 9

_DOC = {str(i): [i, float(i), "x" * (i % 7)] for i in range(1000)}


def slice_seconds(clock=time.perf_counter) -> float:
    """Wall time of one slice: integer arithmetic, then a JSON round trip."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        total = 0
        for i in range(20000):
            total += i * i % 7
        json.loads(json.dumps(_DOC))
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """Median wall time of ``SLICES`` back-to-back slices."""
    return statistics.median(slice_seconds() for _ in range(SLICES))


def to_reference(timings: Sequence[float],
                 around: Sequence[Tuple[float, float]]) -> List[float]:
    """Each timing brought to the reference host.

    ``around[k]`` holds the samples taken just before and just after
    the phase that gave ``timings[k]``; their mean is the host's speed
    during it.
    """
    if len(timings) != len(around):
        raise ValueError("one pair of samples around every timing")
    return [t * 2 * REFERENCE_S / (before + after) for t, (before, after) in zip(timings, around)]
