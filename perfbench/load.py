"""Open-loop and closed-loop drivers for the serve workload.

An open loop sends request ``i`` when it is due, at ``start + i /
rate``, whether or not earlier requests have finished; each request's
latency is timed from its *due* time, so a stall also charges the wait
it imposes on every request queued behind it.  Requests run one at a
time in the calling thread (the service serialises every op behind one
lock anyway), so a request that is due while another runs starts late;
that lateness, and the number of due-but-unstarted requests (the
backlog), are recorded too.

The clock and the sleep are parameters so tests can drive a stub
service on a fake clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List

#: The driver sleeps only through the part of a gap longer than this
#: and spins for the rest: ``time.sleep`` overshoots by tens of
#: microseconds, and a core that sleeps between requests wakes slower,
#: both of which would be charged to the service's latency.
SPIN_S = 2e-3


@dataclass
class LoadResult:
    """Per-request timings of one open-loop or closed-loop run."""

    latencies_s: List[float] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    backlog_max: int = 0
    elapsed_s: float = 0.0
    idle_s: float = 0.0
    failed: int = 0

    @property
    def achieved_rps(self) -> float:
        """Requests completed per second of the run's wall time."""
        return len(self.latencies_s) / self.elapsed_s if self.elapsed_s else 0.0


def merge(results: List[LoadResult]) -> LoadResult:
    """One LoadResult for several runs at one rate, in the order given."""
    merged = LoadResult()
    for result in results:
        merged.latencies_s.extend(result.latencies_s)
        merged.lateness_s.extend(result.lateness_s)
        merged.backlog_max = max(merged.backlog_max, result.backlog_max)
        merged.elapsed_s += result.elapsed_s
        merged.idle_s += result.idle_s
        merged.failed += result.failed
    return merged


def open_loop(
    send: Callable[[int], object],
    n_requests: int,
    rate: float,
    check: Callable[[int, object], None] = lambda i, response: None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> LoadResult:
    """Issue ``send(i)`` for ``i`` in ``range(n_requests)`` at ``rate`` per second.

    ``check(i, response)`` sees each response after its latency is taken.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    result = LoadResult()
    interval = 1.0 / rate
    start = clock()
    for i in range(n_requests):
        due = start + i * interval
        now = clock()
        if now < due:
            idle_from = now
            if due - now > SPIN_S:
                sleep(due - now - SPIN_S)
            while clock() < due:
                pass
            now = clock()
            result.idle_s += now - idle_from
        # requests i..k are due and not started, k the last one due by now
        backlog = min(n_requests, int((now - start) / interval) + 1) - i
        if backlog > result.backlog_max:
            result.backlog_max = backlog
        result.lateness_s.append(now - due)
        response = send(i)
        result.latencies_s.append(clock() - due)
        check(i, response)
    result.elapsed_s = clock() - start
    return result


def closed_loop(
    send: Callable[[int], object],
    n_requests: int,
    check: Callable[[int, object], None] = lambda i, response: None,
    clock: Callable[[], float] = time.perf_counter,
) -> LoadResult:
    """Issue the requests back to back; latency is each one's service time."""
    result = LoadResult()
    start = clock()
    for i in range(n_requests):
        t0 = clock()
        response = send(i)
        result.latencies_s.append(clock() - t0)
        check(i, response)
    result.elapsed_s = clock() - start
    return result
