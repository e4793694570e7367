"""The forecast service: per-site online predictors behind one API.

:class:`ForecastService` is the transport-agnostic core of the serve
daemon (:mod:`repro.serve.daemon` speaks stdin-JSONL over it,
:mod:`repro.serve.http` speaks HTTP): a registry of per-site
:class:`~repro.core.base.OnlinePredictor` instances, each fed one power
sample per slot and each checkpointed through a
:class:`~repro.serve.state.StateStore` so a restarted daemon resumes
exactly.  Only checkpointable predictors can be served: ``wcma``,
``ewma``, ``persistence``, ``previous-day``, ``moving-average``,
``ridge`` and ``gbm``; any other name is refused at construction.

Every request and response is one JSON-shaped dict.  Responses to
``observe``/``forecast`` are **audit lines**: they carry the site, the
day/slot position, the predictor name, the observed value, the
prediction for the upcoming slot, and a :func:`~repro.serve.state.state_digest`
of the model state that produced it -- enough to tie any logged
prediction back to an exact, re-loadable predictor state.

Operations (``request["op"]``):

``register``
    ``{"op": "register", "site": S}`` -- instantiate a predictor for
    site ``S`` (synthetic code or a registered measured site).  An
    optional ``"dataset"`` key backs a *logical* site name with another
    site's dataset (``{"op": "register", "site": "node-17", "dataset":
    "SPMD"}``), so a fleet of named nodes can share the six synthetic
    traces while keeping per-node predictor state.  With a state store
    attached, an existing checkpoint for ``(S, predictor)`` is loaded,
    so registration after a restart *is* the resume.
``observe``
    ``{"op": "observe", "site": S, "value": W}`` -- feed one start-of-
    slot power sample; returns the audit line with the prediction for
    the next slot.
``forecast``
    ``{"op": "forecast", "site": S}`` -- the standing prediction for
    the upcoming slot (read-only; no state change).
``replay``
    ``{"op": "replay", "site": S, "days": D}`` -- warm the predictor by
    streaming the first ``D`` days of the site's dataset through it
    (start-of-slot convention of the evaluation layer).
``sites`` / ``stats`` / ``checkpoint``
    Introspection and an explicit flush of all dirty state.

Thread safety: one re-entrant lock serialises every operation, so the
HTTP front-end's request threads (and any embedder driving the service
from multiple threads) cannot interleave a predictor update with a
checkpoint write.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.core.registry import make_predictor
from repro.serve.state import StateStore, state_digest

__all__ = ["ForecastService"]


class _Node:
    """One registered site: its predictor plus serve-side counters."""

    __slots__ = ("site", "dataset", "predictor", "observed",
                 "since_checkpoint", "last_prediction", "digest")

    def __init__(self, site: str, dataset: str, predictor):
        self.site = site
        self.dataset = dataset  # geometry/replay source (default: site)
        self.predictor = predictor
        self.observed = 0          # total samples fed (replay included)
        self.since_checkpoint = 0  # samples since the last state flush
        self.last_prediction: Optional[float] = None
        self.digest: Optional[str] = None


class ForecastService:
    """Multi-site online forecasting with checkpointed state.

    Parameters
    ----------
    n_slots:
        Slots per day served to every predictor (``N``); a site's
        native samples-per-day must be divisible by it.
    predictor:
        Registry name (``wcma``, ``ewma``, ...) instantiated per site;
        it must support ``state_dict`` (every audit line digests the
        state), else construction raises ``ValueError``.
    state_dir:
        Directory of the :class:`~repro.serve.state.StateStore`; None
        disables persistence (state lives and dies with the process).
    checkpoint_every:
        Observed slots between automatic state flushes (1 = after every
        observation -- the always-on-node setting; larger values trade
        durability for write amplification).
    predictor_kwargs:
        Extra keyword arguments for the predictor factory (for WCMA:
        ``alpha``, ``days``, ``k``).
    model_dir:
        Directory of a :class:`~repro.learn.artifact.ArtifactStore`
        holding trained learned-tier artifacts.  When a site registers
        and the store has an artifact for ``(dataset, predictor)``, the
        predictor is constructed *frozen* around it (train/serve split)
        instead of online self-fitting; sites without a stored artifact
        fall back to the plain factory.  A stored artifact whose
        feature-schema version differs from this build's is rejected
        loudly at registration, never served silently.
    """

    def __init__(
        self,
        n_slots: int = 48,
        predictor: str = "wcma",
        state_dir=None,
        checkpoint_every: int = 1,
        predictor_kwargs: Optional[dict] = None,
        model_dir=None,
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.n_slots = n_slots
        self.predictor_name = predictor.lower()
        self.checkpoint_every = checkpoint_every
        self.predictor_kwargs = dict(predictor_kwargs or {})
        self.store = StateStore(state_dir) if state_dir is not None else None
        self.models = None
        if model_dir is not None:
            from repro.learn.artifact import ArtifactStore

            self.models = ArtifactStore(model_dir)
        self._nodes: Dict[str, _Node] = {}
        self._lock = threading.RLock()
        self._op_counts: Dict[str, int] = {}
        self._resumed: Dict[str, str] = {}  # site -> digest resumed from
        self._artifacts: Dict[str, str] = {}  # site -> artifact digest
        # Fail fast on an unknown predictor name, bad kwargs or a
        # predictor without snapshots, before the daemon prints its
        # ready line.
        probe = make_predictor(self.predictor_name, n_slots, **self.predictor_kwargs)
        try:
            probe.state_dict()
        except NotImplementedError:
            raise ValueError(
                f"predictor {self.predictor_name!r} does not support state "
                "checkpointing, so it cannot be served"
            ) from None

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def handle(self, request) -> dict:
        """Execute one request dict; always returns a response dict.

        Never raises on bad input: malformed requests come back as
        ``{"ok": false, "error": ...}`` so one bad query cannot take
        the daemon down.  Genuine library defects still propagate.
        """
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return {
                "ok": False,
                "error": f"unknown op {op!r}; supported: "
                         f"{', '.join(sorted(self._HANDLERS))}",
            }
        with self._lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            try:
                return handler(self, request)
            except (KeyError, ValueError, TypeError, OSError) as exc:
                detail = exc.args[0] if exc.args else exc
                return {"ok": False, "op": op, "error": str(detail)}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _op_register(self, request) -> dict:
        site = self._site_name(request)
        node = self._nodes.get(site)
        if node is not None:
            return self._registered(site, node, created=False)
        dataset = request.get("dataset", site)
        if not isinstance(dataset, str) or not dataset:
            raise ValueError("'dataset' must be a site name")
        dataset = dataset.upper()
        self._check_geometry(dataset)
        kwargs = dict(self.predictor_kwargs)
        artifact = None
        if self.models is not None:
            # Schema-mismatched artifacts raise ArtifactError here: the
            # registration fails loudly instead of serving a model whose
            # feature layout the code no longer computes.
            artifact = self.models.load(dataset, self.predictor_name)
            if artifact is not None:
                kwargs["artifact"] = artifact
        predictor = make_predictor(self.predictor_name, self.n_slots, **kwargs)
        if artifact is not None:
            self._artifacts[site] = artifact.digest()
        node = _Node(site, dataset, predictor)
        if self.store is not None:
            saved = self.store.load(site, self.predictor_name)
            if saved is not None:
                predictor.load_state_dict(saved["predictor"])
                node.observed = int(saved["observed"])
                node.last_prediction = saved["last_prediction"]
                node.digest = state_digest(saved)
                self._resumed[site] = node.digest
        self._nodes[site] = node
        return self._registered(site, node, created=True)

    def _registered(self, site: str, node: _Node, created: bool) -> dict:
        response = {
            "ok": True,
            "op": "register",
            "site": site,
            "dataset": node.dataset,
            "predictor": self.predictor_name,
            "n_slots": self.n_slots,
            "created": created,
            "observed": node.observed,
        }
        if site in self._resumed:
            response["resumed_from"] = self._resumed[site]
        if site in self._artifacts:
            response["model_digest"] = self._artifacts[site]
            response["frozen"] = True
        return response

    def _op_observe(self, request) -> dict:
        node = self._node(request)
        value = request.get("value")
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or value != value  # NaN would silently poison the state
            or value in (float("inf"), float("-inf"))
        ):
            raise ValueError("observe needs a finite numeric 'value' (W/m^2)")
        prediction = node.predictor.observe(float(value))
        node.last_prediction = prediction
        node.observed += 1
        node.since_checkpoint += 1
        node.digest = state_digest(self._snapshot(node))
        flushed = self._maybe_checkpoint(node)
        return {
            "ok": True,
            "op": "observe",
            "site": node.site,
            "day": (node.observed - 1) // self.n_slots,
            "slot": (node.observed - 1) % self.n_slots,
            "predictor": self.predictor_name,
            "value": float(value),
            "prediction": prediction,
            "state_digest": node.digest,
            "checkpointed": flushed,
        }

    def _op_forecast(self, request) -> dict:
        node = self._node(request)
        if node.last_prediction is None:
            raise ValueError(
                f"site {node.site!r} has no observations yet; "
                "send an observe (or replay) first"
            )
        return {
            "ok": True,
            "op": "forecast",
            "site": node.site,
            "day": node.observed // self.n_slots,
            "slot": node.observed % self.n_slots,
            "predictor": self.predictor_name,
            "prediction": node.last_prediction,
            "state_digest": node.digest,
        }

    def _op_replay(self, request) -> dict:
        from repro.solar.datasets import build_dataset
        from repro.solar.slots import SlotView

        node = self._node(request)
        days = request.get("days")
        if not isinstance(days, int) or isinstance(days, bool) or days < 1:
            raise ValueError("replay needs an integer 'days' >= 1")
        trace = build_dataset(node.dataset, n_days=days)
        starts = SlotView.from_trace(trace, self.n_slots).flat_starts()
        prediction = node.last_prediction
        for sample in starts:
            prediction = node.predictor.observe(float(sample))
        node.last_prediction = prediction
        node.observed += starts.size
        node.since_checkpoint += starts.size
        node.digest = state_digest(self._snapshot(node))
        flushed = self._maybe_checkpoint(node)
        return {
            "ok": True,
            "op": "replay",
            "site": node.site,
            "samples": int(starts.size),
            "days": days,
            "predictor": self.predictor_name,
            "prediction": prediction,
            "state_digest": node.digest,
            "checkpointed": flushed,
        }

    def _op_sites(self, request) -> dict:
        return {
            "ok": True,
            "op": "sites",
            "predictor": self.predictor_name,
            "sites": [
                {
                    "site": node.site,
                    "dataset": node.dataset,
                    "observed": node.observed,
                    "pending": node.since_checkpoint,
                    "state_digest": node.digest,
                }
                for node in sorted(self._nodes.values(), key=lambda n: n.site)
            ],
        }

    def _op_stats(self, request) -> dict:
        return {
            "ok": True,
            "op": "stats",
            "predictor": self.predictor_name,
            "n_slots": self.n_slots,
            "n_sites": len(self._nodes),
            "persistent": self.store is not None,
            "artifact_backed": self.models is not None,
            "checkpoint_every": self.checkpoint_every,
            "ops": dict(sorted(self._op_counts.items())),
        }

    def _op_checkpoint(self, request) -> dict:
        return {
            "ok": True,
            "op": "checkpoint",
            "checkpointed": self.checkpoint_all(),
            "persistent": self.store is not None,
        }

    _HANDLERS = {
        "register": _op_register,
        "observe": _op_observe,
        "forecast": _op_forecast,
        "replay": _op_replay,
        "sites": _op_sites,
        "stats": _op_stats,
        "checkpoint": _op_checkpoint,
    }

    # ------------------------------------------------------------------
    # State persistence
    # ------------------------------------------------------------------
    def _snapshot(self, node: _Node) -> dict:
        """The persisted unit: predictor state + serve-side position."""
        return {
            "predictor": node.predictor.state_dict(),
            "observed": node.observed,
            "last_prediction": node.last_prediction,
        }

    def _maybe_checkpoint(self, node: _Node) -> bool:
        if self.store is None or node.since_checkpoint < self.checkpoint_every:
            return False
        self.store.save(node.site, self.predictor_name, self._snapshot(node))
        node.since_checkpoint = 0
        return True

    def checkpoint_all(self) -> int:
        """Flush every node with unpersisted observations.

        The shutdown path (SIGINT / EOF in the daemon) calls this, so
        no observed slot is ever lost to a graceful stop.  Returns the
        number of sites written (0 without a state store).
        """
        if self.store is None:
            return 0
        with self._lock:
            flushed = 0
            for node in self._nodes.values():
                if node.since_checkpoint:
                    self.store.save(
                        node.site, self.predictor_name, self._snapshot(node)
                    )
                    node.since_checkpoint = 0
                    flushed += 1
            return flushed

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _site_name(self, request) -> str:
        site = request.get("site")
        if not isinstance(site, str) or not site:
            raise ValueError("request needs a 'site' name")
        return site.upper()

    def _node(self, request) -> _Node:
        site = self._site_name(request)
        node = self._nodes.get(site)
        if node is None:
            raise ValueError(
                f"site {site!r} is not registered with this service; "
                "send {'op': 'register', 'site': ...} first"
            )
        return node

    def _check_geometry(self, site: str) -> None:
        from repro.solar.datasets import samples_per_day_for

        spd = samples_per_day_for(site)  # KeyError -> unknown site
        if spd % self.n_slots:
            raise ValueError(
                f"N={self.n_slots} does not divide samples per day "
                f"({spd}) of site {site}"
            )
