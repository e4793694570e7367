"""Tests for the benchmark's helpers (statistics, load driver, host
clock, tracer)."""

import gc
import math

import pytest

from perfbench import hostspeed, stats
from perfbench.load import LoadResult, closed_loop, merge, open_loop
from perfbench.tracer import Tracer


class FakeClock:
    """A clock that advances only when told to (and by 1 us per read)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1e-6
        return self.t

    def sleep(self, seconds):
        self.t += seconds


# -- the percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    (99999, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile(list(reversed(values)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- latency from due time --------------------------------------------------

def _stub_service(clock, stall_at, stall_s, service_s=100e-6):
    def send(i):
        clock.t += stall_s if i == stall_at else service_s
        return {"ok": True, "i": i}
    return send


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    clock = FakeClock()
    seen = []
    result = open_loop(
        _stub_service(clock, stall_at=3, stall_s=0.050), 200, rate=1000.0,
        check=lambda i, response: seen.append(response["i"]),
        clock=clock, sleep=clock.sleep,
    )
    lat_ms = [v * 1e3 for v in result.latencies_s]
    assert seen == list(range(200))
    assert all(v < 0.2 for v in lat_ms[:3])
    assert lat_ms[3] == pytest.approx(50.0, abs=0.1)
    # the next request was due 1 ms later but started after the stall
    assert lat_ms[4] == pytest.approx(49.1, abs=0.1)
    assert result.lateness_s[4] == pytest.approx(0.049, abs=1e-4)
    # the backlog drains at 0.9 ms per request: ~55 requests are late
    late = [i for i, v in enumerate(lat_ms) if v > 1.0]
    assert late[0] == 3 and 50 <= len(late) <= 60
    assert lat_ms[-1] < 0.2
    assert result.backlog_max >= 49
    assert stats.percentile(lat_ms, 99) > 40.0
    assert not stats.lateness_grows(result.lateness_s, slack_s=0.005)


def test_closed_loop_sees_only_the_stalled_request():
    clock = FakeClock()
    result = closed_loop(_stub_service(clock, stall_at=3, stall_s=0.050), 200, clock=clock)
    lat_ms = [v * 1e3 for v in result.latencies_s]
    assert lat_ms[3] == pytest.approx(50.0, abs=0.01)
    assert sum(v > 1.0 for v in lat_ms) == 1


def test_open_loop_over_capacity_grows_lateness():
    clock = FakeClock()
    result = open_loop(_stub_service(clock, stall_at=-1, stall_s=0.0, service_s=2e-3),
                       400, rate=1000.0, clock=clock, sleep=clock.sleep)
    assert stats.lateness_grows(result.lateness_s, slack_s=0.005)
    assert result.achieved_rps == pytest.approx(500.0, rel=0.01)


def test_merge_keeps_the_windows_samples_in_order():
    clock = FakeClock()
    windows = []
    for stall_at in (3, -1):
        window = open_loop(_stub_service(clock, stall_at=stall_at, stall_s=0.050), 100,
                           rate=1000.0, clock=clock, sleep=clock.sleep)
        window.failed = 1
        windows.append(window)
    merged = merge(windows)
    assert merged.latencies_s == windows[0].latencies_s + windows[1].latencies_s
    assert merged.lateness_s == windows[0].lateness_s + windows[1].lateness_s
    assert merged.backlog_max == windows[0].backlog_max > windows[1].backlog_max
    assert merged.elapsed_s == pytest.approx(windows[0].elapsed_s + windows[1].elapsed_s)
    assert merged.idle_s == pytest.approx(windows[0].idle_s + windows[1].idle_s)
    assert merged.failed == 2
    assert merged.achieved_rps == pytest.approx(200 / merged.elapsed_s)
    assert merge([]) == LoadResult()


def test_open_loop_rejects_non_positive_rate():
    with pytest.raises(ValueError):
        open_loop(lambda i: None, 1, rate=0)


# -- sustained_rps selection --------------------------------------------------

def _rung(rate, p99_ms, failed=0, grows=False):
    return {"rate": rate, "achieved_rps": rate * 0.999, "p99_ms": p99_ms,
            "failed": failed, "lateness_grows": grows}


def test_sustained_rps_is_the_highest_rung_that_kept_up():
    rungs = [_rung(1000, 1.0), _rung(2000, 5.0), _rung(4000, 60.0), _rung(8000, 120.0)]
    assert stats.sustained_rps(rungs, limit_ms=10.0) == pytest.approx(1998.0)
    assert stats.sustained_rps(list(reversed(rungs)), limit_ms=10.0) == pytest.approx(1998.0)


def test_sustained_rps_skips_failed_and_growing_rungs():
    rungs = [_rung(1000, 1.0), _rung(2000, 2.0, failed=1), _rung(4000, 3.0, grows=True)]
    assert stats.sustained_rps(rungs, limit_ms=10.0) == pytest.approx(999.0)


def test_sustained_rps_is_zero_when_nothing_kept_up():
    assert stats.sustained_rps([_rung(1000, 50.0)], limit_ms=10.0) == 0.0
    assert stats.sustained_rps([], limit_ms=10.0) == 0.0


# -- the compare rule ----------------------------------------------------------

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_compare_improved_needs_nine_of_ten_wins_beyond_the_spread():
    change = [v * 0.8 for v in PARENT]
    result = stats.verdict(PARENT, change, "lower", bound=0.1)
    assert result["verdict"] == "improved"
    assert result["wins"] == 10


def test_compare_eight_wins_are_not_a_gain():
    change = [v * 0.8 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    assert stats.verdict(PARENT, change, "lower", bound=0.1)["verdict"] == "no worse"


def test_compare_small_shift_inside_parent_spread_is_not_a_gain():
    change = [v - 0.05 for v in PARENT]
    result = stats.verdict(PARENT, change, "lower", bound=0.1)
    assert result["wins"] == 10
    assert result["verdict"] == "no worse"


def test_compare_same_code_is_no_worse():
    change = PARENT[1:] + PARENT[:1]
    assert stats.verdict(PARENT, change, "lower", bound=0.1)["verdict"] == "no worse"


def test_compare_regressed_beyond_bound():
    change = [v * 1.3 for v in PARENT]
    result = stats.verdict(PARENT, change, "lower", bound=0.1)
    assert result["verdict"] == "regressed"
    assert result["worse_share"] == pytest.approx(0.3, abs=0.01)


def test_compare_respects_higher_is_better():
    assert stats.verdict(PARENT, [v * 1.3 for v in PARENT], "higher", 0.1)["verdict"] == "improved"
    assert stats.verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.1)["verdict"] == "regressed"


def test_compare_wide_parent_spread_is_unresolved():
    parent = [5.0, 15.0, 6.0, 14.0, 10.0, 5.5, 14.5, 10.0, 7.0, 13.0]
    change = [v * 1.05 for v in parent[::-1]]
    assert stats.verdict(parent, change, "lower", bound=0.1)["verdict"] == "unresolved"


def test_compare_wide_spread_but_every_change_run_better_is_resolved():
    parent = [5.0, 15.0, 6.0, 14.0, 10.0, 5.5, 14.5, 10.0, 7.0, 13.0]
    change = [4.0, 4.5, 4.2, 4.1, 4.4, 4.3, 4.9, 4.6, 4.8, 4.7]
    # every change run is better, but the medians differ by less than
    # the parent's interquartile distance: resolved, yet no gain
    result = stats.verdict(parent, change, "lower", bound=0.1)
    assert result["wins"] == 10
    assert result["verdict"] == "no worse"


def test_compare_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        stats.verdict(PARENT, PARENT[:9], "lower", 0.1)
    with pytest.raises(ValueError):
        stats.verdict(PARENT, PARENT, "faster", 0.1)


def test_relative_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, median, q3 = stats.quartiles(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.relative_spread([0.0, 0.0]) == math.inf


# -- tracer -----------------------------------------------------------------

class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n if n <= 0 else self.inner(n - 1)


# -- the host clock --------------------------------------------------------

def test_host_to_reference_uses_the_samples_around_each_timing():
    ref = hostspeed.REFERENCE_S
    scaled = hostspeed.to_reference([1.0, 3.0], [(ref, 3 * ref), (2 * ref, ref)])
    assert scaled == pytest.approx([0.5, 2.0])
    with pytest.raises(ValueError):
        hostspeed.to_reference([1.0, 3.0], [(ref, ref)])


@pytest.mark.parametrize("enabled", [True, False])
def test_host_slice_runs_without_the_collector_and_restores_it(enabled):
    seen = []

    def clock():
        seen.append(gc.isenabled())
        return float(len(seen))

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert hostspeed.slice_seconds(clock) == 1.0
        assert seen == [False, False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_tracer_self_time_nesting_and_restore():
    tracer = Tracer()
    original = _Layer.__dict__["outer"]
    tracer.wrap_method(_Layer, "outer", "a.outer")
    tracer.wrap_method(_Layer, "inner", "b.inner", leaf=True)
    root = tracer.open("job")
    assert _Layer().outer(3) == 1
    tracer.close(root)
    tracer.restore()
    assert _Layer.__dict__["outer"] is original
    # recursion inside a same-named span counts once
    assert tracer.calls("b.inner") == 1
    assert tracer.calls("a.outer") == 1
    calls, incl, own = tracer.totals["a.outer"]
    assert own == incl - tracer.totals["b.inner"][1]
    # leaves are aggregated, not recorded as spans
    names = [span[1] for span in tracer.spans]
    assert names == ["a.outer", "job"]
    outer, job = tracer.spans
    assert outer[4] == job[0] and job[4] is None
    layers = tracer.layer_self_seconds()
    assert set(layers) == {"a", "b", "job"}
