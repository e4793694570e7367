"""Day-horizon energy planning controller (extension).

The Kansal controller chases each slot's prediction; the EWMA-based
minimum-variance controller smooths but reacts slowly.  This module
adds the planner the Noh et al. [4] approach actually implies: keep a
**per-slot profile of realized harvest power** (the same ``μ_D``
structure the predictor uses) and budget the *expected daily income*
evenly, with a proportional state-of-charge correction.  The profile
gives it day-one-of-season awareness that an EWMA acquires only after
its time constant.

The controller learns the profile from the ``feedback`` hook the node
simulation calls with each slot's realized harvest power.
"""

from __future__ import annotations

from repro.core.base import DayHistory
from repro.management.consumer import DutyCycledLoad
from repro.management.controller import Controller

__all__ = ["ProfilePlanningController"]


class ProfilePlanningController(Controller):
    """Budget the expected daily harvest evenly across the day.

    Parameters
    ----------
    load:
        The duty-cycled load (power <-> duty conversion).
    capacity_joules:
        Storage capacity, scaling the SoC correction.
    n_slots:
        Slots per day (profile resolution).
    profile_days:
        Days of realized-harvest history in the profile.
    target_soc:
        Desired state of charge.
    correction_gain:
        Strength of the SoC correction (closes the gap over one day at
        gain 1).
    """

    def __init__(
        self,
        load: DutyCycledLoad,
        capacity_joules: float,
        n_slots: int,
        profile_days: int = 7,
        target_soc: float = 0.6,
        correction_gain: float = 0.75,
    ):
        if capacity_joules <= 0:
            raise ValueError("capacity_joules must be positive")
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if profile_days < 1:
            raise ValueError("profile_days must be >= 1")
        if not 0.0 <= target_soc <= 1.0:
            raise ValueError("target_soc must be in [0, 1]")
        if correction_gain < 0:
            raise ValueError("correction_gain must be non-negative")
        self.load = load
        self.capacity_joules = capacity_joules
        self.n_slots = n_slots
        self.profile_days = profile_days
        self.target_soc = target_soc
        self.correction_gain = correction_gain
        self._profile = DayHistory(n_slots=n_slots, depth=profile_days)
        self._bootstrap_average = None

    def reset(self) -> None:
        self._profile.reset()
        self._bootstrap_average = None

    # ------------------------------------------------------------------
    def feedback(self, harvest_watts: float) -> None:
        """Record the just-finished slot's realized harvest power."""
        if harvest_watts < 0:
            raise ValueError(f"harvest power must be non-negative, got {harvest_watts}")
        self._profile.push_slot(harvest_watts)
        if self._bootstrap_average is None:
            self._bootstrap_average = harvest_watts
        else:
            self._bootstrap_average += 0.05 * (harvest_watts - self._bootstrap_average)

    def expected_daily_average_watts(self) -> float:
        """Mean harvest power over a day, from the learned profile."""
        rows = self._profile.recent_rows(self.profile_days)
        if not len(rows):
            return self._bootstrap_average or 0.0
        return float(rows.mean())

    def decide(self, predicted_watts: float, state_of_charge: float) -> float:
        if predicted_watts < 0:
            raise ValueError("predicted_watts must be non-negative")
        average = self.expected_daily_average_watts()
        if average <= 0.0:
            average = predicted_watts  # first-day bootstrap
        correction = (
            self.correction_gain
            * (state_of_charge - self.target_soc)
            * self.capacity_joules
            / 86_400.0
        )
        budget = max(0.0, average + correction)
        return self.load.duty_for_power(budget)
