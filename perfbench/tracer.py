"""In-memory span tracer that wraps the library's public functions.

The benchmark must not edit the program it measures, so tracing works
from the outside: :meth:`Tracer.wrap_function` and
:meth:`Tracer.wrap_method` replace a public function (in every loaded
``repro`` module that holds a reference to it) or a class attribute by
a timing wrapper, and :meth:`Tracer.restore` puts the originals back.

Every wrapped call updates a per-name aggregate -- calls, inclusive
time, self time (its duration minus the part its child spans cover) --
and, unless the name was wrapped as a *leaf*, also appends one span
``(id, name, start_ns, end_ns, parent_id, trace_id, pid)`` to an
in-memory list that :meth:`Tracer.dump` writes out when the benchmark
ends.  Leaves are per-sample calls such as a predictor's ``observe``:
recording millions of them individually would cost more memory than
the work they measure, so only their aggregates are kept.

Forked worker processes inherit the wrappers.  A worker drops the
spans it inherited as it forks, and appends what it records
to ``<spill_dir>/spans-<pid>.jsonl`` each time its outermost span
closes; :meth:`Tracer.collect_workers` reads those files back, so the
workers' spans join the parent's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class _Frame:
    __slots__ = ("name", "start", "child_ns", "span_id", "trace_id")

    def __init__(self, name, start, span_id, trace_id):
        self.name = name
        self.start = start
        self.child_ns = 0
        self.span_id = span_id
        self.trace_id = trace_id


class Tracer:
    """Spans and per-name aggregates for one traced run."""

    def __init__(self, spill_dir: Optional[str] = None):
        self.spill_dir = spill_dir
        self.origin_pid = self.pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        self.spans: List[tuple] = []
        self.totals: Dict[str, List[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counters: Dict[str, float] = {}
        self._stack: List[_Frame] = []
        self._active: Dict[str, int] = {}  # name -> open spans of that name
        self._next_id = 1
        self._spilled = 0

    # -- recording ---------------------------------------------------
    def _forked(self) -> None:
        self.pid = os.getpid()
        self._reset()

    def open(self, name: str, trace_id: Optional[int] = None) -> _Frame:
        """Start a span; close it with :meth:`close`."""
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        frame = _Frame(name, _now(), self._next_id, trace_id)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, leaf: bool = False) -> int:
        """End ``frame`` (the innermost open span); returns its duration."""
        end = _now()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
        entry = self.totals.get(frame.name)
        if entry is None:
            entry = self.totals[frame.name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child_ns
        if not leaf:
            self.spans.append((
                frame.span_id, frame.name, frame.start, end,
                parent.span_id if parent is not None else None,
                frame.trace_id, self.pid,
            ))
            if parent is None and self.spill_dir and self.pid != self.origin_pid:
                self._spill()
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        record = {
            "spans": self.spans[self._spilled:],
            "totals": self.totals,
            "counters": self.counters,
        }
        self._spilled = len(self.spans)
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    # -- wrapping ----------------------------------------------------
    def _wrapper(self, fn: Callable, name: str, leaf: bool,
                 after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = tracer._active
            if active.get(name):
                # a call nested in a span of the same name (a selector's
                # experts, sweep_many's inner grid searches) counts once,
                # in the outermost span
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            active[name] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] = 0
                tracer.close(frame, leaf=leaf)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def wrap_function(self, fn: Callable, name: str, leaf: bool = False,
                      after: Optional[Callable] = None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it.

        ``after(tracer, result, args, kwargs)`` runs outside the span,
        for counters derived from a call's result.
        """
        wrapper = self._wrapper(fn, name, leaf, after)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, leaf: bool = False,
                    after: Optional[Callable] = None) -> None:
        """Replace the method ``cls.attr`` (plain or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrapper(raw.__func__, name, leaf, after))
        else:
            wrapper = self._wrapper(raw, name, leaf, after)
        self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------
    def collect_workers(self) -> int:
        """Merge the spans and aggregates spilled by forked workers.

        Returns the number of worker processes merged; their spill
        files are removed.
        """
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return 0
        merged = 0
        for entry in sorted(os.listdir(self.spill_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.spill_dir, entry)
            last = None
            with open(path) as handle:
                for line in handle:
                    last = json.loads(line)
                    self.spans.extend(tuple(span) for span in last["spans"])
            if last is not None:
                # aggregates are cumulative per worker: the last line holds them all
                for name, (calls, incl, own) in last["totals"].items():
                    entry_ = self.totals.setdefault(name, [0, 0, 0])
                    entry_[0] += calls
                    entry_[1] += incl
                    entry_[2] += own
                for name, amount in last["counters"].items():
                    self.counters[name] = self.counters.get(name, 0) + amount
                merged += 1
            os.remove(path)
        return merged

    def seconds(self, name: str) -> float:
        """Inclusive seconds spent in spans called ``name``."""
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer (the span-name prefix before the first dot)."""
        layers: Dict[str, float] = {}
        for name, (_, _, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own / 1e9
        return layers

    def dump(self, path: str, meta: dict) -> None:
        """Write every span and aggregate to ``path`` as JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["id", "name", "start_ns", "end_ns",
                                    "parent_id", "trace_id", "pid"],
                    "spans": self.spans,
                    "totals": {
                        name: {"calls": c, "incl_s": i / 1e9, "self_s": s / 1e9}
                        for name, (c, i, s) in sorted(self.totals.items())
                    },
                    "counters": self.counters,
                },
                handle,
            )
