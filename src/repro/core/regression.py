"""Regression-based predictors (extension baselines).

Two classical time-series baselines the harvesting literature measures
against, both causal and cheap enough for a node:

* :class:`ARPredictor` -- an order-``p`` autoregressive model over the
  *clear-sky-index-like* normalised signal: the raw power is divided by
  the per-slot historical average (so the AR model sees a roughly
  stationary series), predicted one step ahead, and re-scaled by the
  next slot's average.  Coefficients are re-fit periodically by least
  squares over a sliding window.
* :class:`SlotLinearTrendPredictor` -- per-slot linear extrapolation
  over the last ``window`` days: fits ``value ~ day`` for each slot
  independently; captures seasonal drift, ignores weather.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.base import DayHistory, OnlinePredictor

__all__ = ["ARPredictor", "SlotLinearTrendPredictor"]


class ARPredictor(OnlinePredictor):
    """AR(p) predictor on the per-slot-normalised power signal.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    order:
        AR order ``p``.
    history_days:
        Days used for the per-slot normalising average.
    fit_window:
        Normalised samples kept for the periodic least-squares re-fit.
    refit_every:
        Steps between coefficient re-fits.
    """

    def __init__(
        self,
        n_slots: int,
        order: int = 3,
        history_days: int = 10,
        fit_window: int = 512,
        refit_every: int = 48,
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if order < 1:
            raise ValueError("order must be >= 1")
        if history_days < 1:
            raise ValueError("history_days must be >= 1")
        if fit_window <= order + 1:
            raise ValueError("fit_window must exceed order + 1")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.n_slots = n_slots
        self.order = order
        self.history_days = history_days
        self.fit_window = fit_window
        self.refit_every = refit_every
        self._history = DayHistory(n_slots=n_slots, depth=history_days)
        self._recent = deque(maxlen=fit_window)
        self._lags = deque(maxlen=order)
        self._coefficients = None
        self._steps = 0
        self._mu_row = None
        self._mu_days_seen = 0

    def reset(self) -> None:
        self._history.reset()
        self._recent.clear()
        self._lags.clear()
        self._coefficients = None
        self._steps = 0
        self._mu_row = None
        self._mu_days_seen = 0

    # ------------------------------------------------------------------
    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        self._refresh_mu()
        slot = self._history.current_slot

        if self._mu_row is None:
            self._history.push_slot(value)
            return float(value)  # warm-up

        floor = max(0.05 * float(self._mu_row.max()), 1e-9)
        mu_now = float(self._mu_row[slot])
        # Night guard, mirroring WCMA's eta handling: below the floor the
        # index is undefined; use the neutral 1.0 so the AR model sees a
        # stationary daylight series instead of a 0/1 day-night square wave.
        normalised = value / mu_now if mu_now >= floor else 1.0

        self._recent.append(normalised)
        self._lags.append(normalised)
        self._steps += 1
        if self._steps % self.refit_every == 0:
            self._fit()

        mu_next = float(self._mu_row[(slot + 1) % self.n_slots])
        predicted_index = self._predict_index()
        prediction = max(0.0, predicted_index * mu_next)

        self._history.push_slot(value)
        return float(prediction)

    # ------------------------------------------------------------------
    def _refresh_mu(self) -> None:
        completed = self._history.total_days_completed
        if completed == self._mu_days_seen:
            return
        self._mu_days_seen = completed
        self._mu_row = self._history.mu_rows(self.history_days)

    def _fit(self) -> None:
        """Least-squares AR(p) fit over the sliding window."""
        data = np.asarray(self._recent, dtype=float)
        if data.size <= self.order + 1:
            return
        rows = data.size - self.order
        design = np.empty((rows, self.order))
        for lag in range(self.order):
            design[:, lag] = data[self.order - 1 - lag : data.size - 1 - lag]
        target = data[self.order :]
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self._coefficients = solution

    def _predict_index(self) -> float:
        """One-step AR prediction of the normalised signal."""
        if self._coefficients is None or len(self._lags) < self.order:
            return self._lags[-1] if self._lags else 1.0
        lags = list(self._lags)[::-1]  # newest first
        return float(np.dot(self._coefficients, lags[: self.order]))


class SlotLinearTrendPredictor(OnlinePredictor):
    """Per-slot linear extrapolation over the last ``window`` days.

    For each slot the last ``window`` observed values (one per day) are
    fit with a line in the day index and extrapolated one day ahead --
    tomorrow's value for the *next* slot is estimated from the next
    slot's recent daily trend.  Captures seasonal ramps exactly, clouds
    not at all; a useful lower-bound baseline for the comparison bench.
    """

    def __init__(self, n_slots: int, window: int = 5):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if window < 2:
            raise ValueError("window must be >= 2")
        self.n_slots = n_slots
        self.window = window
        self._history = DayHistory(n_slots=n_slots, depth=window)

    def reset(self) -> None:
        self._history.reset()

    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        slot = self._history.current_slot
        available = self._history.n_complete_days

        if available < 2:
            prediction = value
        else:
            column = self._history.slot_column(slot + 1, self.window)
            days = np.arange(column.size, dtype=float)
            slope, intercept = np.polyfit(days, column, 1)
            prediction = max(0.0, slope * column.size + intercept)

        self._history.push_slot(value)
        return float(prediction)
