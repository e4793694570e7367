"""EWMA predictor of Kansal et al. [2] -- the classic baseline.

Kansal's predictor keeps, for every slot of the day, an exponentially
weighted moving average of the power observed in that slot on previous
days::

    x(d, n) = gamma * e(d-1, n) + (1 - gamma) * x(d-1, n)

and predicts the upcoming slot from its own historical average.  It
adapts across days but, unlike WCMA, ignores how the *current* day is
unfolding -- which is exactly the weakness the conditioning factor
``Φ_K`` of the evaluated algorithm addresses.  The comparison experiment
(`benchmarks/test_bench_predictor_comparison.py`) quantifies this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import (
    OnlinePredictor,
    PredictorState,
    VectorPredictor,
    as_batch,
    restore_array,
)

__all__ = ["EWMAPredictor", "EWMAVector"]


class _EWMAState(PredictorState):
    """EWMA's configuration, state, reset, snapshot and update step.

    The per-slot averages are ``(N,)``, or ``(N, B)`` with a batch; the
    "slot seen yet" flags stay per slot because every node observes the
    same slots in the same order.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    gamma:
        Smoothing weight on the most recent day, ``0 <= gamma <= 1``.
        Kansal et al. use 0.5.
    """

    kind = "ewma"

    def __init__(self, n_slots: int, gamma: float, batch_size: Optional[int] = None):
        super().__init__(n_slots, batch_size)
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.gamma = gamma
        sample_shape = () if batch_size is None else (batch_size,)
        self._averages = np.zeros((n_slots,) + sample_shape, dtype=float)
        self._seen = np.zeros(n_slots, dtype=bool)
        self._slot = 0

    def reset(self) -> None:
        self._averages.fill(0.0)
        self._seen.fill(False)
        self._slot = 0

    def config(self) -> dict:
        return {"gamma": self.gamma}

    def _state(self) -> dict:
        return {
            "averages": self._averages.copy(),
            "seen": self._seen.copy(),
            "slot": self._slot,
        }

    def _load_state(self, state: dict) -> None:
        restore_array(self._averages, state["averages"], "averages")
        restore_array(self._seen, state["seen"], "seen")
        self._slot = int(state["slot"])

    def _step(self, values):
        """Fold this slot's sample(s) into its average; predict the next slot.

        Returns the next slot's average -- a view into the state when
        batched -- or ``values`` itself during warm-up.
        """
        slot = self._slot
        if self._seen[slot]:
            self._averages[slot] = (
                self.gamma * values + (1.0 - self.gamma) * self._averages[slot]
            )
        else:
            self._averages[slot] = values
            self._seen[slot] = True
        next_slot = (slot + 1) % self.n_slots
        self._slot = next_slot
        if self._seen[next_slot]:
            return self._averages[next_slot]
        return values  # warm-up: persistence until history exists


class EWMAPredictor(_EWMAState, OnlinePredictor):
    """Per-slot exponentially weighted moving average predictor."""

    def __init__(self, n_slots: int, gamma: float = 0.5):
        super().__init__(n_slots, gamma)

    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        return float(self._step(value))


class EWMAVector(_EWMAState, VectorPredictor):
    """Lock-step :class:`EWMAPredictor` over a batch of ``B`` nodes."""

    def __init__(self, n_slots: int, batch_size: int, gamma: float = 0.5):
        super().__init__(n_slots, gamma, batch_size)

    def observe(self, values: np.ndarray) -> np.ndarray:
        return self._step(as_batch(values, self.batch_size)).copy()
