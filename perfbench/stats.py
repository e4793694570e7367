"""Statistics shared by the benchmark and its compare command.

Pure functions over plain lists, so they are cheap to test: the
percentile rule, the open-loop lateness test, the ladder's
``sustained_rps`` selection and the parent-vs-change verdict.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles the tail rule chooses from, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Share of interleaved pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> Optional[float]:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it.

    ``None`` when even the lowest candidate has too few (fewer than
    ``MIN_BEYOND`` samples above the median needs ``n < 20``).
    """
    best = None
    for p in candidates:
        # n * (100 - p) / 100 >= MIN_BEYOND, kept in exact integers
        # so 99.9 does not round the wrong way.
        if round(n * (100.0 - p) * 100) >= MIN_BEYOND * 100 * 100:
            best = p
    return best


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def lateness_grows(lateness_s: Sequence[float], slack_s: float) -> bool:
    """True when an open-loop run fell further and further behind.

    Compares the median lateness of the last quarter of requests with
    that of the first quarter; a backlog that drains between bursts
    keeps both low, one that accumulates pushes the last quarter up.
    """
    n = len(lateness_s)
    if n < 4:
        return False
    quarter = n // 4
    head = statistics.median(lateness_s[:quarter])
    tail = statistics.median(lateness_s[-quarter:])
    return tail - head > slack_s


def sustained_rps(rungs: Sequence[Dict], limit_ms: float) -> float:
    """Completion rate of the highest ladder rung that kept up.

    A rung keeps up when none of its requests failed, its p99 latency
    is within ``limit_ms`` and its lateness did not grow.  Each rung is
    a dict with ``rate``, ``achieved_rps``, ``p99_ms``, ``failed`` and
    ``lateness_grows``; the value returned is the rung's measured
    completion rate (close to, never above, its nominal ``rate``), or
    0.0 when no rung kept up.
    """
    passing = [
        rung for rung in rungs
        if not rung["failed"]
        and rung["p99_ms"] <= limit_ms
        and not rung["lateness_grows"]
    ]
    if not passing:
        return 0.0
    return max(passing, key=lambda rung: rung["rate"])["achieved_rps"]


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Dict:
    """Judge one (metric, workload) pair of result sets.

    ``parent[i]`` and ``change[i]`` form the i-th interleaved pair.
    The change *improved* when it wins at least :data:`WIN_SHARE` of
    the pairs (ties count for neither side) and its median beats the
    parent's by more than the parent's interquartile distance.
    Otherwise it *regressed* when its median is worse than the
    parent's by more than ``bound`` (a share of the parent's median),
    is *unresolved* when the parent's own spread is wider than
    ``bound`` -- unless every change run beats every parent run -- and
    is *no worse* in the remaining case.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median)
    worse_share = -gain / abs(parent_median) if parent_median else 0.0
    spread = relative_spread(parent)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        result = "improved"
    elif worse_share > bound:
        result = "regressed"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "no worse"
    return {
        "verdict": result,
        "pairs": len(parent),
        "wins": wins,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_spread": spread,
        "worse_share": worse_share,
    }
