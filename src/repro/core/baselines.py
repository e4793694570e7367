"""Simple baseline predictors used in comparison experiments.

These are the naive strategies the related work measures against:

* :class:`PersistencePredictor` -- "the next slot looks like this one"
  (equivalent to WCMA with ``alpha = 1``).
* :class:`PreviousDayPredictor` -- "the next slot looks like the same
  slot yesterday".
* :class:`MovingAveragePredictor` -- unconditioned ``μ_D`` (WCMA with
  ``alpha = 0`` and the conditioning factor forced to 1): the paper's
  *conditioned average term* without the conditioning, which isolates
  the contribution of ``Φ_K`` in the ablation benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import (
    DayHistory,
    OnlinePredictor,
    PredictorState,
    VectorPredictor,
    as_batch,
)

__all__ = [
    "PersistencePredictor",
    "PreviousDayPredictor",
    "MovingAveragePredictor",
    "PersistenceVector",
    "PreviousDayVector",
    "MovingAverageVector",
]


class _PersistenceState(PredictorState):
    """Persistence keeps no state: its snapshot is geometry alone."""

    kind = "persistence"

    def reset(self) -> None:
        pass  # stateless


class PersistencePredictor(_PersistenceState, OnlinePredictor):
    """Predicts that the next slot's power equals the current sample."""

    def __init__(self, n_slots: int):
        super().__init__(n_slots)

    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        return float(value)


class PersistenceVector(_PersistenceState, VectorPredictor):
    """Lock-step :class:`PersistencePredictor` over ``B`` nodes."""

    def __init__(self, n_slots: int, batch_size: int):
        super().__init__(n_slots, batch_size)

    def observe(self, values: np.ndarray) -> np.ndarray:
        return as_batch(values, self.batch_size).copy()


class _MovingAverageState(PredictorState):
    """Slot mean over the last ``days`` complete days: state and step.

    The moving average and previous-day (``days = 1``) baselines share
    this state: one :class:`DayHistory` of ``days`` rows.
    """

    kind = "moving-average"

    def __init__(self, n_slots: int, days: int, batch_size: Optional[int] = None):
        super().__init__(n_slots, batch_size)
        if days < 1:
            raise ValueError("days must be >= 1")
        self.days = days
        self._history = DayHistory(n_slots, days, batch_size)

    def reset(self) -> None:
        self._history.reset()

    def config(self) -> dict:
        return {"days": self.days}

    def _state(self) -> dict:
        return {"history": self._history.state_dict()}

    def _load_state(self, state: dict) -> None:
        self._history.load_state_dict(state["history"])

    def _step(self, values):
        """Record this slot's sample(s); predict the next slot's mean.

        During warm-up (no complete day yet) returns ``values`` itself.
        """
        history = self._history
        if history.n_complete_days > 0:
            prediction = history.slot_mean(history.current_slot + 1, self.days)
        else:
            prediction = values
        history.push_slot(values)
        return prediction


class MovingAveragePredictor(_MovingAverageState, OnlinePredictor):
    """Predicts the next slot as its unconditioned ``μ_D`` average.

    Equivalent to WCMA with ``alpha = 0`` and ``Φ_K ≡ 1``; comparing it
    with real WCMA isolates the benefit of the conditioning factor.
    """

    def __init__(self, n_slots: int, days: int = 10):
        super().__init__(n_slots, days)

    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        return float(self._step(value))


class MovingAverageVector(_MovingAverageState, VectorPredictor):
    """Lock-step :class:`MovingAveragePredictor` over ``B`` nodes."""

    def __init__(self, n_slots: int, batch_size: int, days: int = 10):
        super().__init__(n_slots, days, batch_size)

    def observe(self, values: np.ndarray) -> np.ndarray:
        return self._step(as_batch(values, self.batch_size)).copy()


class PreviousDayPredictor(MovingAveragePredictor):
    """Predicts the next slot from the same slot exactly one day ago."""

    kind = "previous-day"

    def __init__(self, n_slots: int):
        super().__init__(n_slots, days=1)


class PreviousDayVector(MovingAverageVector):
    """Lock-step :class:`PreviousDayPredictor` over ``B`` nodes."""

    kind = "previous-day"

    def __init__(self, n_slots: int, batch_size: int):
        super().__init__(n_slots, batch_size, days=1)
