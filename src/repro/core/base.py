"""Online predictor protocol and shared state machinery.

Every predictor in this package follows the same node-side contract,
mirroring the paper's Fig. 5 sequence: once per slot the node wakes,
measures the incoming power, and produces a prediction for the upcoming
slot.  In code::

    predictor.reset()
    for sample in start_of_slot_samples:      # time order
        prediction = predictor.observe(sample)

``observe`` returns the prediction made *at* that boundary for the slot
that is just beginning (equivalently, for the power at the next
boundary -- ``ê(n+1)`` in the paper's notation).

A fleet steps ``B`` such nodes in lock-step through a
:class:`VectorPredictor`.  Each built-in online predictor is written
once, as a :class:`PredictorState` subclass holding its validation,
state, reset and snapshot code; its scalar and fleet classes are thin
faces over it that add only ``observe``.  :class:`DayHistory` is the one
ring buffer of past days, unbatched or with a trailing batch axis.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

__all__ = [
    "OnlinePredictor",
    "VectorPredictor",
    "PredictorState",
    "DayHistory",
]


class OnlinePredictor(abc.ABC):
    """Abstract base class for slot-by-slot online predictors."""

    #: Slots per day this predictor was configured for.
    n_slots: int

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all history and return to the initial state."""

    @abc.abstractmethod
    def observe(self, value: float) -> float:
        """Consume the start-of-slot measurement, return the prediction.

        Parameters
        ----------
        value:
            Measured power at the current slot boundary (``ẽ(n)``).

        Returns
        -------
        float
            Prediction for the next boundary / upcoming slot (``ê(n+1)``).
        """

    def run(self, samples: np.ndarray) -> np.ndarray:
        """Feed a flat, time-ordered sample array; return all predictions.

        ``predictions[t]`` is the prediction made at boundary ``t`` (for
        boundary ``t+1``).  The predictor is *not* reset first, so warm
        state can be carried across calls; call :meth:`reset` explicitly
        for a cold start.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        out = np.empty_like(samples)
        for t, value in enumerate(samples):
            out[t] = self.observe(float(value))
        return out

    # ------------------------------------------------------------------
    # Checkpointing (optional per predictor)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the online state, sufficient to resume exactly.

        Predictors that support checkpoint/resume override this together
        with :meth:`load_state_dict` -- the built-in online predictors
        through their :class:`PredictorState`, the learned tier through
        its kernel; restoring the
        snapshot into a freshly constructed predictor and continuing
        must be indistinguishable from never having stopped.  The
        serving layer (:mod:`repro.serve`) persists these snapshots
        after each observed slot so a restarted daemon resumes without
        replaying history.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state checkpointing"
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        Raises ``ValueError`` when the snapshot's geometry or
        configuration does not match this instance.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state checkpointing"
        )


class VectorPredictor(abc.ABC):
    """Abstract base class for lock-step fleet predictors.

    A vector predictor is the fleet-scale counterpart of
    :class:`OnlinePredictor`: it advances ``batch_size`` independent
    nodes through the *same* slot boundary at once.  All nodes share the
    slot grid (``n_slots`` and the position within the day), but each
    node sees its own measurement and carries its own history, so a
    heterogeneous fleet (different sites, different weather) is one
    ``(B,)`` array per call::

        kernel.reset()
        for t in range(total_boundaries):
            predictions = kernel.observe(samples[t])   # (B,) -> (B,)

    Elementwise, a vector kernel must reproduce its scalar counterpart:
    node ``b`` of ``observe(values)[b]`` equals what a dedicated
    :class:`OnlinePredictor` fed ``values[b]`` slot by slot would
    return (``tests/management/test_fleet_parity.py`` enforces this to
    1e-9 for every built-in predictor).
    """

    #: Slots per day this predictor was configured for.
    n_slots: int
    #: Number of nodes stepped per ``observe`` call (``B``).
    batch_size: int

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all history and return to the initial state."""

    @abc.abstractmethod
    def observe(self, values: np.ndarray) -> np.ndarray:
        """Consume one ``(B,)`` slot-boundary sample, return predictions.

        Parameters
        ----------
        values:
            ``(batch_size,)`` measured power at the current slot
            boundary, one entry per node (``ẽ_b(n)``).

        Returns
        -------
        numpy.ndarray
            ``(batch_size,)`` predictions for the upcoming slot
            (``ê_b(n+1)``).
        """

    def run(self, samples: np.ndarray) -> np.ndarray:
        """Feed a ``(T, B)`` sample matrix; return all predictions.

        Row ``t`` of the result is the prediction made at boundary
        ``t``.  As with :meth:`OnlinePredictor.run`, state is carried
        across calls; call :meth:`reset` for a cold start.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != self.batch_size:
            raise ValueError(
                f"samples must have shape (T, {self.batch_size}), "
                f"got {samples.shape}"
            )
        out = np.empty_like(samples)
        for t in range(samples.shape[0]):
            out[t] = self.observe(samples[t])
        return out


def as_batch(values, batch_size: int) -> np.ndarray:
    """Validate and coerce one slot's fleet samples to a ``(B,)`` array."""
    values = np.asarray(values, dtype=float)
    if values.shape != (batch_size,):
        raise ValueError(
            f"expected shape ({batch_size},), got {values.shape}"
        )
    if (values < 0).any():
        raise ValueError("power samples must be non-negative")
    return values


class PredictorState:
    """Configuration, state and snapshot code shared by a predictor's faces.

    Each built-in online predictor is written once, as a subclass of
    this class that owns its constructor validation, its state arrays,
    ``reset`` and ``state_dict``/``load_state_dict``.  With
    ``batch_size=None`` the state is unbatched; with an int, every state
    array grows a trailing batch axis for ``B`` lock-step nodes.  The
    scalar face (an :class:`OnlinePredictor`) and the fleet face (a
    :class:`VectorPredictor`) both inherit that one subclass and add only
    ``observe``; the two class trees stay otherwise disjoint.

    Subclasses set :attr:`kind`, extend :meth:`config` with the settings
    a snapshot must match, and return / restore their live state through
    :meth:`_state` / :meth:`_load_state`.  Derived caches are never
    snapshotted: they are marked stale on load and recomputed from the
    restored state, so a resumed predictor emits the same bits as one
    that never stopped.
    """

    #: Snapshot tag; loading a snapshot of another kind is refused.
    kind: str

    def __init__(self, n_slots: int, batch_size: Optional[int] = None):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_slots = n_slots
        self.batch_size = batch_size

    def config(self) -> dict:
        """Settings a snapshot must have been taken with to load here."""
        return {}

    def _state(self) -> dict:
        """Value copies of the live state, for :meth:`state_dict`."""
        return {}

    def _load_state(self, state: dict) -> None:
        """Restore what :meth:`_state` captured."""

    def state_dict(self) -> dict:
        """Snapshot of the online state, sufficient to resume exactly."""
        return {
            "kind": self.kind,
            "n_slots": self.n_slots,
            "batch_size": self.batch_size,
            "config": self.config(),
            **self._state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry and config must match)."""
        if state.get("kind") != self.kind:
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} is not {self.kind!r}"
            )
        taken = (state["n_slots"], state["batch_size"], state["config"])
        mine = (self.n_slots, self.batch_size, self.config())
        if taken != mine:
            raise ValueError(
                "snapshot was taken with n_slots={}, batch_size={}, config={}; "
                "this predictor has n_slots={}, batch_size={}, config={}".format(
                    *taken, *mine
                )
            )
        self._load_state(state)


def restore_array(target: np.ndarray, value, name: str) -> None:
    """Copy a snapshot array into ``target`` in place (shapes must match)."""
    value = np.asarray(value, dtype=target.dtype)
    if value.shape != target.shape:
        raise ValueError(
            f"snapshot {name} has shape {value.shape}; expected {target.shape}"
        )
    target[...] = value


class DayHistory:
    """Ring buffer of the last ``depth`` completed days of slot samples.

    Used by predictors that condition on "the same slot on previous
    days" (WCMA's ``E_{D x N}`` matrix, the moving-average baselines,
    the learned tier's day-history features).

    The buffer distinguishes *completed* days (full rows) from the
    current, partially observed day.  ``push_slot`` appends to the
    current day and automatically rolls it into history when the row
    fills up.

    With ``batch_size=None`` each sample is a scalar and the buffer is
    ``(depth, n_slots)``.  With an int ``B`` it holds ``B`` lock-step
    nodes: the buffer is ``(depth, n_slots, B)``, each pushed sample is
    a ``(B,)`` array, and every accessor gains the same trailing batch
    axis.  The day/slot counters are shared scalars either way, because
    a fleet crosses every boundary at once.
    """

    def __init__(self, n_slots: int, depth: int, batch_size: Optional[int] = None):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_slots = n_slots
        self.depth = depth
        self.batch_size = batch_size
        #: Trailing shape of one sample: ``()`` or ``(B,)``.
        self.sample_shape = () if batch_size is None else (batch_size,)
        self._rows = np.zeros((depth, n_slots) + self.sample_shape, dtype=float)
        self._current = np.zeros((n_slots,) + self.sample_shape, dtype=float)
        self._n_complete = 0
        self._write_row = 0
        self._slot = 0

    # ------------------------------------------------------------------
    @property
    def n_complete_days(self) -> int:
        """Number of fully observed days available (capped at ``depth``)."""
        return min(self._n_complete, self.depth)

    @property
    def total_days_completed(self) -> int:
        """Days completed since reset (uncapped; grows forever)."""
        return self._n_complete

    @property
    def current_slot(self) -> int:
        """Index of the next slot to be written on the current day."""
        return self._slot

    def push_slot(self, value) -> None:
        """Record the start-of-slot sample (or ``(B,)`` samples) for the current slot."""
        self._current[self._slot] = value
        self._slot += 1
        if self._slot == self.n_slots:
            self._rows[self._write_row] = self._current
            self._write_row = (self._write_row + 1) % self.depth
            self._n_complete += 1
            self._slot = 0

    def recent_rows(self, depth: Optional[int] = None) -> np.ndarray:
        """The last ``depth`` complete day rows (all available by default).

        Oldest first, ``(use, n_slots)`` or ``(use, n_slots, B)`` with
        ``use = min(depth, n_complete_days)``; a copy, not a view.
        """
        available = self.n_complete_days
        use = available if depth is None else min(depth, available)
        end = self._write_row
        return self._rows[np.arange(end - use, end) % self.depth]

    def slot_mean(self, slot: int, depth: Optional[int] = None):
        """Mean of ``slot``'s samples over the last ``depth`` complete days.

        ``μ_D(slot)`` in the paper (Eq. 2): a float, or ``(B,)`` per
        node.  NaN when no complete day is available yet.
        """
        rows = self.recent_rows(depth)
        if not len(rows):
            return float("nan") if self.batch_size is None else np.full(self.batch_size, np.nan)
        return rows[:, slot % self.n_slots].mean(axis=0)

    def slot_column(self, slot: int, depth: Optional[int] = None) -> np.ndarray:
        """Samples of ``slot`` over the last ``depth`` complete days.

        ``(use,)`` or ``(use, B)``, oldest first; empty when no complete
        day is available yet.
        """
        return self.recent_rows(depth)[:, slot % self.n_slots]

    def mu_rows(self, depth: Optional[int] = None) -> Optional[np.ndarray]:
        """``μ_D`` over every slot, ``(n_slots,)`` or ``(n_slots, B)``; None without history."""
        rows = self.recent_rows(depth)
        return rows.mean(axis=0) if len(rows) else None

    def reset(self) -> None:
        """Clear all state."""
        self._rows.fill(0.0)
        self._current.fill(0.0)
        self._n_complete = 0
        self._write_row = 0
        self._slot = 0

    def state_dict(self) -> dict:
        """Snapshot of the ring buffer (value copies, not views)."""
        return {
            "n_slots": self.n_slots,
            "depth": self.depth,
            "batch_size": self.batch_size,
            "rows": self._rows.copy(),
            "n_complete": self._n_complete,
            "write_row": self._write_row,
            "current": self._current.copy(),
            "slot": self._slot,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        taken = (state["depth"], state["n_slots"], state["batch_size"])
        mine = (self.depth, self.n_slots, self.batch_size)
        if taken != mine:
            raise ValueError(
                "history snapshot is depth={} n_slots={} batch_size={}; "
                "this history is depth={} n_slots={} batch_size={}".format(
                    *taken, *mine
                )
            )
        restore_array(self._rows, state["rows"], "history rows")
        restore_array(self._current, state["current"], "history current day")
        self._n_complete = int(state["n_complete"])
        self._write_row = int(state["write_row"])
        self._slot = int(state["slot"])
