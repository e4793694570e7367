"""Run benchmark workloads and print their metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_report --seed 1 --seconds 10 --trace 0

``--workload`` takes one name, a comma-separated list, or ``all``.
With ``--trace 0`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
instead, and the spans are written under ``.perfbench-out/``.  With
several workloads the metric names are prefixed ``<workload>.``.
``--out FILE`` appends one record per workload (result, machine
context, per-job details) to a JSON-lines file that
``perfbench/compare.py`` reads.  The exit status is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats as bstats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402  (imports no numpy)

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters timed per run for the import part of ``setup_s``.
IMPORT_REPEATS = 7

#: Units of every end-to-end value the runs measure; BENCHMARK.json
#: names the ones that form the metric contract.
E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "sustained_rps": "1/s", "peak_rss_mb": "MB",
}

OUT_DIR = ".perfbench-out"
TMP_DIR = ".perfbench-tmp"


def _configure_threads(workloads) -> int:
    """Cap BLAS threads so workers x threads <= cores; must precede numpy."""
    workers = max(WORKLOADS[name].workers for name in workloads)
    threads = max(1, (os.cpu_count() or 1) // workers)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def machine_context(threads: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


def import_seconds(modules) -> float:
    """Median import time of ``modules`` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=os.environ, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process (plus its largest worker)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _job(workload, tracer=None):
    """One timed job under a root span; returns (wall seconds, failed)."""
    frame = tracer.open("job") if tracer else None
    t0 = time.perf_counter()
    failed = workload.job()
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(frame)
        tracer.collect_workers()
    return wall, failed


def batch_metrics(workload, seconds: float) -> dict:
    """Jobs back to back for ``seconds`` (at least one); end-to-end metrics."""
    walls, failed = [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, bad = _job(workload)
        walls.append(wall)
        failed += bad
    measured = time.perf_counter() - start
    walls_ms = [w * 1e3 for w in walls]
    tail = bstats.tail_percentile(len(walls))
    # One job is one request of a batch workload.  Fewer than 20 jobs
    # support no percentile under the ten-beyond rule, so the slowest
    # job stands in for the tail.
    p99 = bstats.percentile(walls_ms, 99) if tail and tail >= 99 else max(walls_ms)
    return {
        "metrics": {
            "run_s": statistics.median(walls),
            "latency_p50_ms": statistics.median(walls_ms),
            "latency_p99_ms": p99,
            "sustained_rps": len(walls) / measured,
        },
        "attempted": len(walls),
        "failed": failed,
        "details": {"job_walls_s": walls, "tail_percentile": tail},
    }


def serve_metrics(workload, seconds: float) -> dict:
    """Closed-loop cycles alternating with nominal-rate windows, then the ladder."""
    from perfbench import hostspeed, load
    from perfbench import workloads as w

    cycle = w.SERVE_CHECKPOINT_EVERY
    per_cycle = cycle // w.SERVE_WINDOW_ROUNDS
    workload.phase(cycle, None)
    closed, closed_host, windows, windows_host = [], [], [], []
    # Host samples between the phases, and the pair around each phase.
    host = [hostspeed.sample()]

    def timed(n_rounds, rate, results, around):
        results.append(workload.phase(n_rounds, rate))
        host.append(hostspeed.sample())
        around.append((host[-2], host[-1]))

    start = time.perf_counter()
    # Whole cycles of windows, so the nominal rate sees the same share
    # of checkpoint writes as a whole cycle does.
    while (len(windows) < w.SERVE_MIN_WINDOWS or len(windows) % per_cycle
           or time.perf_counter() - start < seconds / 2):
        timed(cycle, None, closed, closed_host)
        for _ in range(w.SERVE_WINDOWS_PER_CYCLE):
            timed(w.SERVE_WINDOW_ROUNDS, w.SERVE_NOMINAL_RPS, windows, windows_host)
    nominal = load.merge(windows)
    rungs = {w.SERVE_NOMINAL_RPS: w.ladder_rung(nominal, w.SERVE_NOMINAL_RPS)}

    def passes(rung):
        return bstats.sustained_rps([rung], w.SERVE_P99_LIMIT_MS) > 0

    above = sorted(r for r in w.SERVE_LADDER if r > w.SERVE_NOMINAL_RPS)
    below = sorted((r for r in w.SERVE_LADDER if r < w.SERVE_NOMINAL_RPS), reverse=True)
    # Latency rises with rate, so the ladder climbs until a rung fails
    # and, if the nominal rate already fails, descends until one passes.
    for rate in above if passes(rungs[w.SERVE_NOMINAL_RPS]) else below:
        rungs[rate] = w.ladder_rung(workload.phase(cycle, rate), rate)
        if passes(rungs[rate]) != (rate > w.SERVE_NOMINAL_RPS):
            break
    latencies_ms = [v * 1e3 for v in nominal.latencies_s]
    # Requests alternate observe, forecast.  The median over both sits
    # on the gap between the cheap reads and the costlier writes and
    # jumps between them from run to run, so the p50 reported is the
    # observes' (the forecasts' is in the details).
    observe_ms, forecast_ms = latencies_ms[0::2], latencies_ms[1::2]
    window_p50_ms = [
        bstats.percentile([v * 1e3 for v in r.latencies_s[0::2]], 50) for r in windows
    ]
    cycle_s = [r.elapsed_s for r in closed]
    tail = bstats.tail_percentile(len(latencies_ms))
    finish_failed = workload.finish()
    return {
        "metrics": {
            # The host's speed flips between a fast and a slow mode
            # within seconds and drifts between runs.  Each phase is
            # brought to the reference host by the samples around it,
            # and both metrics are means over the whole alternation: a
            # median jumps with the share of phases in either mode.
            "run_s": statistics.fmean(hostspeed.to_reference(cycle_s, closed_host)),
            "latency_p50_ms": statistics.fmean(
                hostspeed.to_reference(window_p50_ms, windows_host)),
            "latency_p99_ms": bstats.percentile(latencies_ms, 99),
            "sustained_rps": bstats.sustained_rps(list(rungs.values()), w.SERVE_P99_LIMIT_MS),
        },
        "attempted": workload.sent + w.SERVE_SITES + 1,
        "failed": workload.failed,
        "details": {
            "nominal_rps": w.SERVE_NOMINAL_RPS,
            "p99_limit_ms": w.SERVE_P99_LIMIT_MS,
            "latency_samples": len(latencies_ms),
            "window_observe_p50_ms": window_p50_ms,
            "host_slice_ms": [v * 1e3 for v in host],
            "observe_p50_ms": bstats.percentile(observe_ms, 50),
            "forecast_p50_ms": bstats.percentile(forecast_ms, 50),
            "tail_percentile": tail,
            "tail_ms": bstats.percentile(latencies_ms, tail),
            "ladder": [rungs[r] for r in sorted(rungs)],
            "closed_cycle_s": cycle_s,
            "resume_failed": finish_failed,
        },
    }


def traced_batch(workload, seconds: float, tracer) -> dict:
    """Untraced and traced jobs alternately; per-layer metrics of the traced."""
    from perfbench import layers

    plain, traced, failed = [], [], 0
    traced_stats = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, bad = _job(workload)
        plain.append(wall)
        failed += bad
        layers.install(tracer, dispatch=workload.workers > 1)
        before = len(workload.exec_stats)
        try:
            wall, bad = _job(workload, tracer)
        finally:
            tracer.restore()
        traced_stats.extend(workload.exec_stats[before:])
        traced.append(wall)
        failed += bad
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    return {
        "metrics": layers.metrics(tracer, traced_stats, len(traced), overhead_frac=overhead),
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "details": {"untraced_walls_s": plain, "traced_walls_s": traced},
    }


def traced_serve(workload, tracer) -> dict:
    """A closed-loop cycle untraced and traced, then a traced nominal cycle."""
    from perfbench import layers
    from perfbench import workloads as w

    cycle = w.SERVE_CHECKPOINT_EVERY
    plain = workload.phase(cycle, None)
    layers.install(tracer)
    try:
        frame = tracer.open("job")
        closed = workload.phase(cycle, None, tracer)
        tracer.close(frame)
        frame = tracer.open("job")
        nominal = workload.phase(cycle, w.SERVE_NOMINAL_RPS, tracer)
        tracer.close(frame)
    finally:
        tracer.restore()
    workload.finish()
    lateness_ms = [v * 1e3 for v in nominal.lateness_s]
    serve = {
        "serve.longest_handle_ms": workload.longest_handle_s * 1e3,
        "serve.gen_lateness_ms": bstats.percentile(lateness_ms, 99),
        "serve.backlog_max": float(nominal.backlog_max),
    }
    return {
        "metrics": layers.metrics(
            tracer, [], 1, idle_s=closed.idle_s + nominal.idle_s, serve=serve,
            overhead_frac=closed.elapsed_s / plain.elapsed_s - 1.0,
        ),
        "attempted": workload.sent + w.SERVE_SITES + 1,
        "failed": workload.failed,
        "details": {"untraced_cycle_s": plain.elapsed_s, "traced_cycle_s": closed.elapsed_s},
    }


def run_workload(name: str, args, tmp: str, threads: int) -> dict:
    from perfbench.layers import unit_of
    from perfbench.tracer import Tracer

    cache_dir = os.environ["REPRO_SOLAR_CACHE_DIR"]
    workload = WORKLOADS[name](ROOT, args.seed, tmp)
    setup_s = import_seconds(workload.imports)
    for module in workload.imports:
        __import__(module)
    tracer = None
    if args.trace:
        spill = tempfile.mkdtemp(prefix="spans-", dir=tmp)
        tracer = Tracer(spill_dir=spill)
    if args.trace and name == "serve_stream":
        from perfbench import layers

        layers.install(tracer)
        try:
            workload.setup()
        finally:
            tracer.restore()
    else:
        setup_s += workload.setup()

    if name == "serve_stream":
        out = traced_serve(workload, tracer) if args.trace else serve_metrics(workload, args.seconds)
    else:
        out = (traced_batch(workload, args.seconds, tracer) if args.trace
               else batch_metrics(workload, args.seconds))

    if os.listdir(cache_dir):
        workload.notes.append(f"result cache directory {cache_dir} is not empty")
        out["failed"] += 1
    if not args.trace:
        out["metrics"]["setup_s"] = setup_s
        out["metrics"]["peak_rss_mb"] = peak_rss_mb(with_children=workload.workers > 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": float(out["metrics"][m["name"]]), "unit": m["unit"]}
        for m in listed
    }
    # measured and printed, but outside the metric contract (see README)
    extra = {
        key: {"value": float(value), "unit": unit_of(key) if args.trace else E2E_UNITS[key]}
        for key, value in out["metrics"].items() if key not in metrics
    }
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "failed_frac": result["failed"] / result["attempted"],
        "context": machine_context(threads),
        "notes": workload.notes,
        "details": out["details"],
        "unlisted_metrics": extra,
    }
    if tracer is not None:
        path = os.path.join(ROOT, OUT_DIR, f"spans-{name}-seed{args.seed}-{os.getpid()}.json")
        tracer.dump(path, {k: record[k] for k in ("workload", "seed", "context")})
        record["spans_file"] = os.path.relpath(path, ROOT)
    return record


def report(record: dict) -> None:
    """Human-readable lines (everything but the final JSON line)."""
    result = record["result"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']})")
    for key, metric in result["metrics"].items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    for key, metric in record["unlisted_metrics"].items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}  (not in BENCHMARK.json)")
    print(f"  {'failed_frac':<28} {record['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} attempted)")
    for note in record["notes"]:
        print(f"  note: {note}")
    print("  context: " + json.dumps(record["context"], sort_keys=True))
    print("  details: " + json.dumps(record["details"], sort_keys=True, default=str))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's golden seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload (whole jobs/cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {', '.join(WORKLOADS)}")
    args.names = names
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (os.path.join("src", "repro"), os.path.join("tests", "golden")):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    threads = _configure_threads(args.names)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    os.makedirs(os.path.join(ROOT, TMP_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, TMP_DIR))
    os.environ["REPRO_SOLAR_CACHE_DIR"] = os.path.join(tmp, "cache")
    os.makedirs(os.environ["REPRO_SOLAR_CACHE_DIR"])
    records = []
    try:
        for name in args.names:
            record = run_workload(name, args, tmp, threads)
            report(record)
            records.append(record)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record, default=str) + "\n")
    finally:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{key}": metric
                for r in records for key, metric in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
