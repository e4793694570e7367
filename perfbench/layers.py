"""Which library calls the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<call>``; the layer is the ``repro``
sub-package the call belongs to, so a layer's self time is the summed
self time of its spans.  Per-sample calls (predictor ``observe``,
state digests) are wrapped as leaves: counted and timed, not recorded
one span each.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List

from repro.experiments.runner import EXPERIMENTS

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = ("solar", "core", "learn", "metrics", "experiments",
          "parallel", "management", "serve")

#: Elements hashed per digest are counted on this many digests only:
#: the state size is steady once a site is warm, and counting every
#: digest would dominate the tracing overhead.
STATE_ELEM_SAMPLES = 64

#: Every per-layer metric name, in report order.
PER_LAYER = (
    "solar.trace_builds", "solar.trace_build_s",
    "solar.scenario_applies", "solar.scenario_apply_s",
    "core.sweep_calls", "core.grid_points", "core.sweep_s",
    "core.batch_builds", "core.batch_build_s",
    "core.observe_calls", "core.observe_s",
    "core.vector_observe_calls", "core.vector_observe_s",
    "learn.refits", "learn.refit_rows", "learn.refit_s",
    "learn.features_s", "learn.predict_s",
    "metrics.evaluate_calls", "metrics.evaluate_s",
) + tuple(f"experiments.{e}_s" for e in EXPERIMENTS) + (
    "parallel.units", "parallel.chunks", "parallel.dispatch_s",
    "parallel.worker_busy_frac", "parallel.tail_idle_s",
    "parallel.fleet_blocks", "parallel.fleet_block_s",
    "management.simulate_s",
    "serve.observe_s", "serve.forecast_s", "serve.digests", "serve.digest_s",
    "serve.state_elems", "serve.checkpoints", "serve.checkpoint_s",
    "serve.checkpoint_bytes", "serve.longest_handle_ms",
    "serve.json_s", "serve.gen_lateness_ms", "serve.backlog_max",
) + tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "unaccounted_s", "tracing_overhead_frac",
)

PER_LAYER_UNITS = {
    "parallel.worker_busy_frac": "fraction",
    "tracing_overhead_frac": "fraction",
    "serve.longest_handle_ms": "ms",
    "serve.gen_lateness_ms": "ms",
    "serve.checkpoint_bytes": "bytes",
    "serve.state_elems": "count",
}


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _count_elems(value) -> int:
    if isinstance(value, dict):
        return sum(_count_elems(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_count_elems(v) for v in value)
    size = getattr(value, "size", None)
    return int(size) if isinstance(size, int) else 1


def _count_grid_points(tracer, result, args, kwargs) -> None:
    results = result if isinstance(result, list) else [result]
    tracer.count("core.grid_points", sum(int(r.errors.size) for r in results))


def _count_refit_rows(tracer, result, args, kwargs) -> None:
    X = args[1] if len(args) > 1 else kwargs["X"]
    tracer.count("learn.refit_rows", int(X.shape[0]) * int(X.shape[1]))


def _count_state_elems(tracer, result, args, kwargs) -> None:
    if tracer.counters.get("serve.state_elem_samples", 0) < STATE_ELEM_SAMPLES:
        tracer.count("serve.state_elem_samples")
        tracer.count("serve.state_elems_sampled", _count_elems(args[0]))


def _count_checkpoint_bytes(tracer, result, args, kwargs) -> None:
    store, site, predictor = args[:3]
    tracer.count("serve.checkpoint_bytes", os.path.getsize(store.path_for(site, predictor)))


def _subclasses(base) -> List[type]:
    found, todo = [], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def install(tracer, dispatch: bool = False) -> None:
    """Wrap every instrumented call; ``dispatch`` also wraps the executor.

    The executor is wrapped only for a workload that runs worker
    processes: inline, its span would merely relabel the units' own
    untraced work as ``parallel`` time.
    """
    import importlib

    from repro.core import optimizer
    from repro.core.base import OnlinePredictor, VectorPredictor
    from repro.core.wcma import WCMABatch
    from repro.experiments import fleet as fleet_experiment
    from repro.learn import predictor as learn_predictor
    from repro.management.fleet import FleetSimulator
    from repro.metrics import evaluate
    from repro.parallel import executor
    from repro.serve import state
    from repro.solar import datasets
    from repro.solar.scenarios.scenario import Scenario

    tracer.wrap_function(datasets.build_dataset, "solar.build_dataset")
    tracer.wrap_method(Scenario, "apply", "solar.scenario_apply")
    tracer.wrap_function(optimizer.grid_search, "core.sweep", after=_count_grid_points)
    tracer.wrap_function(optimizer.sweep_many, "core.sweep", after=_count_grid_points)
    tracer.wrap_method(WCMABatch, "__init__", "core.batch_build")
    for cls in _subclasses(OnlinePredictor):
        if "observe" in cls.__dict__:
            tracer.wrap_method(cls, "observe", "core.observe", leaf=True)
    for cls in _subclasses(VectorPredictor):
        if "observe" not in cls.__dict__:
            continue
        if cls.__module__.startswith("repro.core"):
            tracer.wrap_method(cls, "observe", "core.vector_observe", leaf=True)
        elif cls.__module__.startswith("repro.learn"):
            tracer.wrap_method(cls, "observe", "learn.observe", leaf=True)
    tracer.wrap_function(learn_predictor.fit_model_batch, "learn.refit",
                         after=_count_refit_rows)
    tracer.wrap_function(evaluate.evaluate_predictor, "metrics.evaluate")
    for experiment in EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{experiment}")
        tracer.wrap_function(module.run, f"experiments.{experiment}")
    tracer.wrap_method(FleetSimulator, "run_aggregate", "management.simulate")
    tracer.wrap_method(FleetSimulator, "__init__", "management.simulator_init")
    tracer.wrap_function(fleet_experiment.build_fleet_specs, "management.build_specs")
    tracer.wrap_function(state.state_digest, "serve.digest", leaf=True,
                         after=_count_state_elems)
    tracer.wrap_method(state.StateStore, "save", "serve.checkpoint",
                       after=_count_checkpoint_bytes)
    if dispatch:
        tracer.wrap_function(executor.execute_units, "parallel.execute")


def _worker_split(tracer) -> Dict[str, float]:
    """Busy share and tail idle of the workers under each executor span."""
    main = tracer.origin_pid
    executes = [s for s in tracer.spans if s[1] == "parallel.execute" and s[6] == main]
    busy_fracs, tails = [], []
    for _, _, start, end, _, _, _ in executes:
        per_worker: Dict[int, List[tuple]] = {}
        for span in tracer.spans:
            if span[6] != main and span[4] is None and start <= span[2] <= end:
                per_worker.setdefault(span[6], []).append(span)
        if not per_worker:
            continue
        busy = sum(s[3] - s[2] for spans in per_worker.values() for s in spans)
        busy_fracs.append(busy / (len(per_worker) * (end - start)))
        last_ends = [max(s[3] for s in spans) for spans in per_worker.values()]
        tails.append((max(last_ends) - min(last_ends)) / 1e9)
    return {
        "parallel.worker_busy_frac": statistics.mean(busy_fracs) if busy_fracs else 0.0,
        "parallel.tail_idle_s": statistics.mean(tails) if tails else 0.0,
    }


def metrics(tracer, exec_stats: list, traced_jobs: int, *, idle_s: float = 0.0,
            serve: Dict[str, float] = None, overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric, per traced job (0 where a layer is unused).

    ``exec_stats`` are the executor records of the traced jobs;
    ``idle_s`` is open-loop idle time inside the job spans (not work,
    so not unaccounted); ``serve`` carries the load generator's own
    numbers.
    """
    per = 1.0 / max(1, traced_jobs)
    out = {name: 0.0 for name in PER_LAYER}

    def pair(prefix: str, span: str, calls_key: str, seconds_key: str) -> None:
        out[f"{prefix}.{calls_key}"] = tracer.calls(span) * per
        out[f"{prefix}.{seconds_key}"] = tracer.seconds(span) * per

    pair("solar", "solar.build_dataset", "trace_builds", "trace_build_s")
    pair("solar", "solar.scenario_apply", "scenario_applies", "scenario_apply_s")
    pair("core", "core.sweep", "sweep_calls", "sweep_s")
    out["core.grid_points"] = tracer.counters.get("core.grid_points", 0) * per
    pair("core", "core.batch_build", "batch_builds", "batch_build_s")
    pair("core", "core.observe", "observe_calls", "observe_s")
    pair("core", "core.vector_observe", "vector_observe_calls", "vector_observe_s")
    out["learn.refits"] = tracer.calls("learn.refit") * per
    out["learn.refit_rows"] = tracer.counters.get("learn.refit_rows", 0) * per
    stages: Dict[str, float] = {}
    for record in exec_stats:
        for stage, seconds in (record.stage_seconds or {}).items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    for stage in ("refit", "features", "predict"):
        out[f"learn.{stage}_s"] = stages.get(stage, 0.0) * per
    pair("metrics", "metrics.evaluate", "evaluate_calls", "evaluate_s")
    for experiment in EXPERIMENTS:
        out[f"experiments.{experiment}_s"] = tracer.seconds(f"experiments.{experiment}") * per

    fleet = tracer.calls("management.simulate") > 0
    if exec_stats and not fleet:
        out["parallel.units"] = sum(r.n_units for r in exec_stats) * per
        out["parallel.chunks"] = sum(r.n_chunks for r in exec_stats) * per
        out["parallel.dispatch_s"] = sum(r.dispatch_s for r in exec_stats) * per
    out.update(_worker_split(tracer))
    if fleet and exec_stats:
        blocks = sum(r.n_units for r in exec_stats)
        out["parallel.fleet_blocks"] = blocks * per
        out["parallel.fleet_block_s"] = sum(r.elapsed_s for r in exec_stats) / max(1, blocks)
    out["management.simulate_s"] = tracer.seconds("management.simulate") * per

    out["serve.observe_s"] = tracer.seconds("serve.observe") * per
    out["serve.forecast_s"] = tracer.seconds("serve.forecast") * per
    pair("serve", "serve.digest", "digests", "digest_s")
    samples = tracer.counters.get("serve.state_elem_samples", 0)
    if samples:
        out["serve.state_elems"] = tracer.counters["serve.state_elems_sampled"] / samples
    pair("serve", "serve.checkpoint", "checkpoints", "checkpoint_s")
    out["serve.checkpoint_bytes"] = tracer.counters.get("serve.checkpoint_bytes", 0) * per
    out["serve.json_s"] = tracer.seconds("serve.json") * per
    out.update(serve or {})

    layers = tracer.layer_self_seconds()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0) * per
    job_self = tracer.totals.get("job", (0, 0, 0))[2] / 1e9
    out["unaccounted_s"] = (job_self - idle_s) * per
    out["tracing_overhead_frac"] = overhead_frac
    return out
