"""Benchmark fixtures: full-scale (365-day) experiment reproductions.

Each bench regenerates one of the paper's tables/figures at the paper's
scale, prints the regenerated rows, and asserts the qualitative shape
claims recorded in DESIGN.md.  ``benchmark.pedantic(..., rounds=1)`` is
used throughout: these are end-to-end reproductions, not microbenches,
and a single round is what "regenerate the table" costs.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest

FULL_DAYS = 365

#: True on shared CI runners, where wall-clock gates are softened.
IS_CI = bool(os.environ.get("CI"))

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def full_days():
    """Trace length of the paper's setup."""
    return FULL_DAYS


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record(name, key, payload):
    """Merge one benchmark's numbers into ``BENCH_<name>.json``.

    The records sit at the repo root, untracked: every run rewrites
    them and CI uploads them as artifacts.  Machine context is stored
    per entry, not at the top level: partial runs (e.g. the CI smoke
    job's ``-k`` subset) must not re-attribute numbers measured
    elsewhere to the current machine.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    payload = dict(payload)
    payload["machine"] = {"cpu_count": os.cpu_count(), "ci": IS_CI}
    data.pop("machine", None)  # drop the legacy top-level key
    data[key] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def interleaved_times(runs, rounds):
    """Wall-clock seconds of each named callable over ``rounds`` rounds.

    Each round runs every callable once, back to back, in forward order
    on even rounds and reversed on odd ones.  A shared host that speeds
    up or slows down between rounds then moves both sides of a round's
    ratio together; gate on :func:`median_ratio` of the rounds, not on
    best-ofs taken minutes apart.  Returns ``{name: [seconds, ...]}``.
    """
    names = list(runs)
    times = {name: [] for name in names}
    for i in range(rounds):
        for name in names if i % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            runs[name]()
            times[name].append(time.perf_counter() - start)
    return times


def median_ratio(slow, fast):
    """Median over rounds of ``slow[i] / fast[i]``."""
    return statistics.median(s / f for s, f in zip(slow, fast))
