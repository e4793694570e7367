"""The four benchmark workloads and their output checks.

Each workload drives the library only through public entry points:

* ``paper_report`` -- :func:`repro.experiments.runner.run_all` over the
  six sites at 365 days on two worker processes, then
  ``render_report``; checked byte-for-byte against the golden report.
* ``learned_matrix`` -- :func:`repro.experiments.robustness.run` with
  the learned-tier golden configuration, inline; checked against the
  golden digest at the golden seed, for completeness and finiteness
  at any other seed.
* ``serve_stream`` -- :meth:`repro.serve.ForecastService.handle` over
  300 replay-warmed WCMA sites with checkpoints on, driven open-loop
  at a fixed ladder of rates plus closed-loop for capacity; every
  response and a final resume from the state directory are checked.
* ``fleet_month`` -- :func:`repro.parallel.run_fleet_blocks` on a
  16384-node month in 4096-node blocks, inline; checked against an
  aggregate digest pinned when the benchmark was written.

A batch workload object has ``setup()`` (state the timed part needs,
returning any set-up seconds beyond imports) and ``job()`` (one full,
checked unit of work, returning the number of failed checks); the
serve workload runs ``phase()`` calls instead and checks as it goes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional

from perfbench import stats as bstats
from perfbench.load import closed_loop, open_loop

# ---------------------------------------------------------------------------
# Fixed parameters.  Changing any of them changes what the metrics mean,
# so it is a change to the benchmark, never part of a change that
# claims a gain.
# ---------------------------------------------------------------------------

PAPER_DAYS = 365
PAPER_JOBS = 2

#: Learned-tier golden configuration (``tests/test_golden.py``).
LEARNED_GOLDEN_SEED = 20100308
LEARNED_KWARGS = dict(n_days=45, sites=("PFCI", "HSU"), tune_wcma=True)

SERVE_SITES = 300
SERVE_SLOTS = 48
SERVE_WARMUP_DAYS = 2
#: Service set-ups timed for ``setup_s`` (median reported).
SERVE_SETUPS = 5
#: Rounds per checkpoint cycle.  A round is one observe and one
#: forecast per site, and all 300 sites checkpoint in the same round.
SERVE_CHECKPOINT_EVERY = 25
#: Open-loop ladder (requests/s), the nominal rate at which latency is
#: reported, and the p99 limit a rung must meet to count as sustained.
SERVE_LADDER = (1000, 2000, 4000, 8000)
SERVE_NOMINAL_RPS = 2000
SERVE_P99_LIMIT_MS = 10.0
#: Rounds in one open-loop window at the nominal rate.  The measured
#: run alternates a closed-loop cycle (for ``run_s``) with
#: ``SERVE_WINDOWS_PER_CYCLE`` windows (for the latency), so both
#: sample the whole run rather than one stretch of it, and the host is
#: clocked between every two phases.  Any 25 consecutive rounds hold
#: one burst round, so every closed cycle sees one burst, and the burst
#: falls in one window of every
#: ``SERVE_CHECKPOINT_EVERY // SERVE_WINDOW_ROUNDS``.
SERVE_WINDOW_ROUNDS = 5
SERVE_WINDOWS_PER_CYCLE = 4
#: Fewest windows timed, after one untimed closed cycle (the first
#: burst after the warm-up is always slower): twenty windows make four
#: whole cycles at the nominal rate, and five closed cycles come with
#: them.
SERVE_MIN_WINDOWS = 20
#: Length of the generated value stream, in days of slots.
SERVE_STREAM_DAYS = 30

FLEET_BLOCK = 4096
#: sha256 of the canonical fleet_month aggregate at the commit that
#: introduced this benchmark (see :func:`fleet_digest`).
FLEET_DIGEST = "4f5fb89fdda6b135b65b2dcb5c224da56f3fbb9dfe6e91657755b429eaa5d8d6"


def clear_memos() -> None:
    """Drop every process-level memo so a job repeats the whole work."""
    from repro.experiments.common import clear_batch_cache
    from repro.solar.datasets import clear_cache

    clear_cache()
    clear_batch_cache()


def canonical(value):
    """Round floats to 12 significant digits, recursively.

    The same canonicalisation as the golden suite: sensitive to any
    real numeric drift, blind to last-ulp reduction-order differences
    between machines.
    """
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def result_digest(result) -> str:
    """sha256 of one ExperimentResult, exactly as the golden suite computes it."""
    payload = json.dumps(
        canonical({
            "experiment": result.experiment,
            "title": result.title,
            "headers": result.headers,
            "rows": result.rows,
            "notes": result.notes,
        }),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class Workload:
    """Common shape; subclasses fill in ``setup`` and ``job``."""

    name = ""
    #: Modules whose import is part of set-up.
    imports: tuple = ()
    #: Worker processes the workload runs (sizes the BLAS thread pool).
    workers = 1

    def __init__(self, root: str, seed: Optional[int], tmp: str):
        self.root = root
        self.seed = seed
        self.tmp = tmp
        self.notes: List[str] = []
        self.exec_stats: List = []

    def setup(self) -> float:
        """Per-run set-up beyond imports; returns its seconds."""
        return 0.0

    def job(self) -> int:
        raise NotImplementedError


class PaperReport(Workload):
    name = "paper_report"
    imports = ("repro.experiments.runner",)
    workers = PAPER_JOBS

    def setup(self) -> float:
        with open(os.path.join(self.root, "tests", "golden", "report_365.txt")) as fh:
            self.golden = fh.read()
        if self.seed is not None:
            self.notes.append("paper_report has fixed inputs; the seed is not used")
        return 0.0

    def job(self) -> int:
        from repro.experiments.runner import render_report, run_all

        clear_memos()
        results = run_all(
            n_days=PAPER_DAYS, jobs=PAPER_JOBS, backend="process",
            stats=self.exec_stats,
        )
        return int(render_report(results) + "\n" != self.golden)


class LearnedMatrix(Workload):
    name = "learned_matrix"
    imports = ("repro.experiments.robustness",)

    def setup(self) -> float:
        self.scenario_seed = LEARNED_GOLDEN_SEED if self.seed is None else self.seed
        self.golden = None
        if self.scenario_seed == LEARNED_GOLDEN_SEED:
            path = os.path.join(self.root, "tests", "golden",
                                "robustness_45d_learned.sha256")
            with open(path) as fh:
                self.golden = fh.read().strip()
            self.notes.append("learned_matrix checked against the golden digest")
        else:
            self.notes.append(
                f"learned_matrix seed {self.scenario_seed} is not the golden "
                f"seed {LEARNED_GOLDEN_SEED}: checked for completeness and "
                "finiteness of every cell only"
            )
        return 0.0

    def job(self) -> int:
        from repro.experiments import robustness

        clear_memos()
        result = robustness.run(
            seed=self.scenario_seed,
            predictors=robustness.LEARNED_MATRIX_PREDICTORS,
            stats=self.exec_stats,
            **LEARNED_KWARGS,
        )
        if self.golden is not None:
            return int(result_digest(result) != self.golden)
        return int(not matrix_complete(result))


def matrix_complete(result) -> bool:
    """Every (scenario, site, predictor) cell present once with finite numbers."""
    from repro.experiments import robustness

    predictors = list(robustness.LEARNED_MATRIX_PREDICTORS)
    predictors.append(robustness.TUNED_WCMA_LABEL)
    expected = {
        (scenario, site, predictor)
        for scenario in robustness.DEFAULT_SCENARIOS
        for site in LEARNED_KWARGS["sites"]
        for predictor in predictors
    }
    seen = [(row["scenario"], row["site"], row["predictor"]) for row in result.rows]
    if len(seen) != len(expected) or set(seen) != expected:
        return False
    for row in result.rows:
        for value in row.values():
            if isinstance(value, float) and not math.isfinite(value):
                return False
    return True


# ---------------------------------------------------------------------------
# fleet_month
# ---------------------------------------------------------------------------

def fleet_plan():
    from repro.parallel import FleetPlan

    return FleetPlan(
        n_nodes=16384,
        sites=("SPMD",),
        n_days=30,
        predictors=("wcma", "ewma", "persistence"),
        controllers=("kansal", "fixed"),
        capacities=(250.0, 9000.0),
    )


def fleet_digest(aggregate) -> str:
    """sha256 over the canonical form of every per-node aggregate array."""
    from repro.management.fleet import FleetAggregate

    payload = {
        "n_slots": aggregate.n_slots,
        "total_slots": aggregate.total_slots,
        "node_names": list(aggregate.node_names),
        "shortfall_slots": [int(v) for v in aggregate.shortfall_slots],
    }
    for name in FleetAggregate._FLOAT_FIELDS:
        payload[name] = canonical([float(v) for v in getattr(aggregate, name)])
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class FleetMonth(Workload):
    name = "fleet_month"
    imports = ("repro.parallel",)

    def setup(self) -> float:
        self.plan = fleet_plan()
        if self.seed is not None:
            self.notes.append("fleet_month has fixed inputs; the seed is not used")
        return 0.0

    def job(self) -> int:
        from repro.parallel import run_fleet_blocks

        clear_memos()
        aggregate, stats = run_fleet_blocks(self.plan, block_size=FLEET_BLOCK, jobs=None)
        self.exec_stats.append(stats)
        self.last_digest = fleet_digest(aggregate)
        return int(self.last_digest != FLEET_DIGEST)


# ---------------------------------------------------------------------------
# serve_stream
# ---------------------------------------------------------------------------

def _site(i: int) -> str:
    return f"node-{i:03d}"


class ServeStream(Workload):
    name = "serve_stream"
    imports = ("repro.serve",)

    DEFAULT_SEED = 1

    def __init__(self, root, seed, tmp):
        super().__init__(root, seed, tmp)
        self.stream_seed = self.DEFAULT_SEED if seed is None else seed
        self.rounds_done = 0
        self.failed = 0
        self.sent = 0
        self._observed = None  # the last observe response, for its forecast

    # -- set-up --------------------------------------------------------
    def _values(self):
        """(rounds, sites) observe values: each site's own trace after the
        warm-up days, scaled by seeded noise."""
        import numpy as np

        from repro.solar.datasets import build_dataset
        from repro.solar.sites import SITE_ORDER
        from repro.solar.slots import SlotView

        rng = np.random.default_rng(self.stream_seed)
        starts = {
            name: SlotView.from_trace(
                build_dataset(name, n_days=SERVE_STREAM_DAYS), SERVE_SLOTS
            ).flat_starts()[SERVE_WARMUP_DAYS * SERVE_SLOTS:]
            for name in SITE_ORDER
        }
        columns = [starts[SITE_ORDER[i % len(SITE_ORDER)]] for i in range(SERVE_SITES)]
        base = np.stack(columns, axis=1)
        noise = rng.uniform(0.8, 1.2, size=base.shape)
        return np.round(base * noise, 6)

    def _fresh_service(self):
        from repro.serve import ForecastService
        from repro.solar.sites import SITE_ORDER

        state_dir = tempfile.mkdtemp(prefix="serve-state-", dir=self.tmp)
        service = ForecastService(
            n_slots=SERVE_SLOTS, predictor="wcma", state_dir=state_dir,
            checkpoint_every=SERVE_CHECKPOINT_EVERY,
        )
        for i in range(SERVE_SITES):
            response = service.handle(json.loads(json.dumps({
                "op": "register", "site": _site(i),
                "dataset": SITE_ORDER[i % len(SITE_ORDER)],
            })))
            if not response.get("ok"):
                raise RuntimeError(f"register failed: {response}")
        for i in range(SERVE_SITES):
            response = service.handle(json.loads(json.dumps({
                "op": "replay", "site": _site(i), "days": SERVE_WARMUP_DAYS,
            })))
            if not response.get("ok"):
                raise RuntimeError(f"replay failed: {response}")
        return service, state_dir

    def setup(self) -> float:
        """Register and warm 300 sites; the last of five set-ups is kept.

        The first two or three set-ups of a process run up to twice as
        slow as the rest, so the median of five is a steady one.
        """
        self.values = self._values()
        times = []
        self.service = None
        for _ in range(SERVE_SETUPS):
            if self.service is not None:
                shutil.rmtree(self.state_dir)
            clear_memos()
            t0 = time.perf_counter()
            self.service, self.state_dir = self._fresh_service()
            times.append(time.perf_counter() - t0)
        self.acked = [SERVE_WARMUP_DAYS * SERVE_SLOTS] * SERVE_SITES
        self.last_digest: List[Optional[str]] = [None] * SERVE_SITES
        self.notes.append(f"serve_stream value stream seed {self.stream_seed}")
        return statistics.median(times)

    # -- one phase of whole checkpoint cycles ----------------------------
    def _payloads(self, n_rounds: int) -> List[str]:
        first = self.rounds_done
        if first + n_rounds > len(self.values):
            raise RuntimeError("serve value stream exhausted; raise SERVE_STREAM_DAYS")
        payloads = []
        for r in range(first, first + n_rounds):
            row = self.values[r]
            for i in range(SERVE_SITES):
                site = _site(i)
                payloads.append(json.dumps(
                    {"op": "observe", "site": site, "value": float(row[i])}
                ))
                payloads.append(json.dumps({"op": "forecast", "site": site}))
        self.rounds_done += n_rounds
        return payloads

    def phase(self, n_rounds: int, rate: Optional[float], tracer=None):
        """Drive ``n_rounds`` rounds (one observe and one forecast per
        site) open-loop at ``rate``, closed-loop when ``rate`` is None;
        returns the LoadResult."""
        payloads = self._payloads(n_rounds)
        handle = self.service.handle
        loads, dumps = json.loads, json.dumps
        self.longest_handle_s = 0.0

        if tracer is None:
            def send(i):
                response = handle(loads(payloads[i]))
                dumps(response)
                return response
        else:
            def send(i):
                frame = tracer.open("serve.json", trace_id=i)
                request = loads(payloads[i])
                tracer.close(frame, leaf=True)
                frame = tracer.open(f"serve.{request['op']}", trace_id=i)
                response = handle(request)
                took = tracer.close(frame) / 1e9
                if took > self.longest_handle_s:
                    self.longest_handle_s = took
                frame = tracer.open("serve.json", trace_id=i)
                dumps(response)
                tracer.close(frame, leaf=True)
                return response

        failed_before = self.failed
        if rate is None:
            result = closed_loop(send, len(payloads), self._check)
        else:
            result = open_loop(send, len(payloads), rate, self._check)
        result.failed = self.failed - failed_before
        self.sent += len(payloads)
        return result

    def _check(self, k: int, response: dict) -> None:
        """Every response ok; each forecast repeats its observe's prediction.

        Runs per response, outside the latency, and keeps no response
        alive: a growing heap of retained responses would lengthen the
        garbage collector's pauses inside the measured run.
        """
        if not response.get("ok"):
            self.failed += 1
            self._observed = None
            return
        i = (k // 2) % SERVE_SITES
        if k % 2 == 0:
            self.acked[i] += 1
            self.last_digest[i] = response["state_digest"]
            self._observed = response
            if response["day"] * SERVE_SLOTS + response["slot"] + 1 != self.acked[i]:
                self.failed += 1
            return
        observed = self._observed
        if (
            observed is None
            or response["prediction"] != observed["prediction"]
            or response["state_digest"] != observed["state_digest"]
        ):
            self.failed += 1

    def finish(self) -> int:
        """Flush, then resume every site from the state directory."""
        from repro.serve import ForecastService
        from repro.solar.sites import SITE_ORDER

        failed = 0
        if not self.service.handle({"op": "checkpoint"}).get("ok"):
            failed += 1
        resumed = ForecastService(
            n_slots=SERVE_SLOTS, predictor="wcma", state_dir=self.state_dir,
            checkpoint_every=SERVE_CHECKPOINT_EVERY,
        )
        for i in range(SERVE_SITES):
            response = resumed.handle({
                "op": "register", "site": _site(i),
                "dataset": SITE_ORDER[i % len(SITE_ORDER)],
            })
            if (
                not response.get("ok")
                or response.get("observed") != self.acked[i]
                or response.get("resumed_from") != self.last_digest[i]
            ):
                failed += 1
        self.failed += failed
        return failed


WORKLOADS = {
    cls.name: cls for cls in (PaperReport, LearnedMatrix, ServeStream, FleetMonth)
}


def ladder_rung(result, rate: float) -> Dict:
    """Summarise one open-loop rung for :func:`perfbench.stats.sustained_rps`."""
    latencies_ms = [v * 1e3 for v in result.latencies_s]
    return {
        "rate": rate,
        "achieved_rps": result.achieved_rps,
        "p50_ms": bstats.percentile(latencies_ms, 50),
        "p99_ms": bstats.percentile(latencies_ms, 99),
        "failed": result.failed,
        "lateness_grows": bstats.lateness_grows(
            result.lateness_s, SERVE_P99_LIMIT_MS / 2e3
        ),
        "samples": len(latencies_ms),
        "backlog_max": result.backlog_max,
    }
