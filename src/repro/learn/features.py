"""Causal feature engineering for the learned predictor tier.

Every learned model in :mod:`repro.learn` consumes the same feature
vector, produced by one incremental builder (:class:`FeatureState`) that
is shared verbatim between offline training and online serving -- the
train/serve split cannot drift because there is only one implementation.
At each slot boundary ``t`` the builder ingests the start-of-slot sample
and emits the row of engineered features available *at* that boundary
(strictly causal: nothing after ``t`` is read), batched over ``B``
lock-step nodes exactly like :class:`~repro.core.base.VectorPredictor`.

The feature families mirror what ha-solar-forecast-ml engineers around
the same problem, grounded in this repo's own machinery:

* **Lags** -- the current and two previous boundary samples.
* **Day history** -- the same slot and the *next* slot (the prediction
  target's slot, WCMA's ``mu_D(n+1)``) on previous days, single-day
  lags plus a ``mu_days``-day mean via
  :class:`~repro.core.base.DayHistory`.
* **Rolling statistics** -- mean/std of the last ``rolling_window``
  samples.
* **Clear-sky geometry** -- Haurwitz clear-sky GHI at the current and
  next slot for the day of year (:func:`repro.solar.clearsky.clearsky_profile`),
  the clear-sky index of the current sample, and the day-of-year
  sin/cos pair.
* **Quality flags** -- causal spike / dropout / stuck indicators using
  the ingest layer's thresholds (:mod:`repro.solar.ingest.quality`), so
  a model can learn to distrust a defective sensor reading.

``FEATURE_SCHEMA_VERSION`` stamps every persisted
:class:`~repro.learn.artifact.ModelArtifact` and every predictor
checkpoint; loaders refuse a schema they were not built for (adding,
removing or reordering features must bump it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from repro.core.base import DayHistory
from repro.solar.clearsky import clearsky_profile

__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "FEATURE_NAMES",
    "N_FEATURES",
    "FeatureConfig",
    "FeatureState",
]

#: Bump whenever :data:`FEATURE_NAMES` or any feature's definition
#: changes; artifact and checkpoint loaders reject other versions.
FEATURE_SCHEMA_VERSION = 1

#: Column order of every feature matrix, fixed by the schema version.
FEATURE_NAMES = (
    "value",          # e(t), the start-of-slot sample
    "lag1",           # e(t-1)
    "lag2",           # e(t-2)
    "prev_day_same",  # slot s on the most recent complete day
    "prev_day_next",  # slot s+1 on the most recent complete day
    "prev2_day_next",  # slot s+1 two complete days back
    "mu_same",        # mean of slot s over the last mu_days complete days
    "mu_next",        # mean of slot s+1 over the last mu_days complete days
    "clearsky_now",   # clear-sky GHI at slot s for the day of year
    "clearsky_next",  # clear-sky GHI at slot s+1
    "csi",            # e(t) / clearsky_now, clipped (clear-sky index)
    "roll_mean",      # mean of the last rolling_window samples
    "roll_std",       # population std of the last rolling_window samples
    "doy_sin",        # sin(2 pi doy / 365)
    "doy_cos",        # cos(2 pi doy / 365)
    "flag_spike",     # e(t) above the physical plausibility ceiling
    "flag_dropout",   # >= dropout_slots consecutive zeros in daylight
    "flag_stuck",     # e(t) == e(t-1) != 0 (frozen sensor)
)

N_FEATURES = len(FEATURE_NAMES)

# Column indices used by the predictor's rule-based fallback.
IDX_VALUE = FEATURE_NAMES.index("value")
IDX_MU_NEXT = FEATURE_NAMES.index("mu_next")


@dataclass(frozen=True)
class FeatureConfig:
    """Hyper-parameters of the feature builder (all plain scalars).

    The defaults reuse the ingest layer's quality thresholds
    (``spike_wm2``) and a mid-latitude clear-sky geometry; traces carry
    no latitude, so ``latitude_deg`` is a modelling choice, not
    metadata, and is persisted inside every artifact.
    """

    mu_days: int = 7
    rolling_window: int = 6
    latitude_deg: float = 40.0
    start_day_of_year: int = 1
    clearsky_model: str = "haurwitz"
    spike_wm2: float = 1500.0
    dropout_slots: int = 3
    night_wm2: float = 50.0
    csi_floor_wm2: float = 25.0

    def __post_init__(self):
        if self.mu_days < 2:
            raise ValueError("mu_days must be >= 2 (day-lag features need 2 days)")
        if self.rolling_window < 2:
            raise ValueError("rolling_window must be >= 2")
        if self.dropout_slots < 1:
            raise ValueError("dropout_slots must be >= 1")
        if not 1 <= self.start_day_of_year <= 365:
            raise ValueError("start_day_of_year must be in [1, 365]")

    def to_dict(self) -> Dict[str, object]:
        """Plain-scalar form, field order fixed by the dataclass."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FeatureConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown feature-config keys: {unknown}")
        return cls(**data)


class FeatureState:
    """Incremental, batched builder of one feature row per boundary.

    ``step`` is O(B x features) per boundary; the caller owns any
    accumulation of the emitted rows (the online predictor keeps a
    training window, offline training keeps the whole trace).
    """

    def __init__(self, n_slots: int, batch_size: int, config: Optional[FeatureConfig] = None):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_slots = n_slots
        self.batch_size = batch_size
        self.config = config if config is not None else FeatureConfig()
        depth = max(self.config.mu_days, 2)
        self._hist = DayHistory(n_slots, depth, batch_size)
        self._roll = np.zeros((self.config.rolling_window, batch_size), dtype=float)
        self._prev1 = np.zeros(batch_size, dtype=float)
        self._prev2 = np.zeros(batch_size, dtype=float)
        self._zero_run = np.zeros(batch_size, dtype=np.int64)
        self._t = 0
        self._profiles: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def boundaries_seen(self) -> int:
        """Slot boundaries ingested so far."""
        return self._t

    @property
    def complete_days(self) -> int:
        """Fully observed days ingested so far (uncapped)."""
        return self._hist.total_days_completed

    def _profile_for(self, day_of_year: int) -> np.ndarray:
        profile = self._profiles.get(day_of_year)
        if profile is None:
            profile = clearsky_profile(
                self.config.latitude_deg,
                day_of_year,
                self.n_slots,
                model=self.config.clearsky_model,
            )
            self._profiles[day_of_year] = profile
        return profile

    def step(self, values: np.ndarray) -> np.ndarray:
        """Ingest one boundary's ``(B,)`` samples; return ``(B, F)`` features."""
        cfg = self.config
        t = self._t
        slot = t % self.n_slots
        day = t // self.n_slots
        doy = (cfg.start_day_of_year - 1 + day) % 365 + 1
        profile = self._profile_for(doy)
        cs_now = float(profile[slot])
        cs_next = float(profile[(slot + 1) % self.n_slots])

        lag1 = self._prev1 if t >= 1 else values
        lag2 = self._prev2 if t >= 2 else lag1

        # Quality flags use only the sample stream itself (causal
        # counterparts of the ingest report's spike/dropout/stuck).
        self._zero_run = np.where(values <= 0.0, self._zero_run + 1, 0)
        flag_spike = (values > cfg.spike_wm2).astype(float)
        flag_dropout = (
            (self._zero_run >= cfg.dropout_slots) & (cs_now > cfg.night_wm2)
        ).astype(float)
        flag_stuck = ((values == lag1) & (values > 0.0) & (t >= 1)).astype(float)

        # Day history: push first, then read -- at the last slot of a
        # day "the most recent complete day" is the day just finished.
        self._hist.push_slot(values)
        n_days = self._hist.n_complete_days
        next_slot = (slot + 1) % self.n_slots
        if n_days >= 1:
            same_col = self._hist.slot_column(slot, 2)
            next_col = self._hist.slot_column(next_slot, 2)
            prev_day_same = same_col[-1]
            prev_day_next = next_col[-1]
            prev2_day_next = next_col[0] if n_days >= 2 else next_col[-1]
            mu_same = self._hist.slot_mean(slot, cfg.mu_days)
            mu_next = self._hist.slot_mean(next_slot, cfg.mu_days)
        else:
            prev_day_same = prev_day_next = prev2_day_next = values
            mu_same = mu_next = values

        # Rolling window over the last `rolling_window` samples
        # (current included); before the window fills, over what exists.
        self._roll[t % cfg.rolling_window] = values
        window = self._roll if t + 1 >= cfg.rolling_window else self._roll[: t + 1]
        roll_mean = window.mean(axis=0)
        roll_std = window.std(axis=0)

        if cs_now > cfg.csi_floor_wm2:
            csi = np.clip(values / cs_now, 0.0, 3.0)
        else:
            csi = np.zeros(self.batch_size, dtype=float)

        angle = 2.0 * np.pi * doy / 365.0
        out = np.empty((self.batch_size, N_FEATURES), dtype=float)
        out[:, 0] = values
        out[:, 1] = lag1
        out[:, 2] = lag2
        out[:, 3] = prev_day_same
        out[:, 4] = prev_day_next
        out[:, 5] = prev2_day_next
        out[:, 6] = mu_same
        out[:, 7] = mu_next
        out[:, 8] = cs_now
        out[:, 9] = cs_next
        out[:, 10] = csi
        out[:, 11] = roll_mean
        out[:, 12] = roll_std
        out[:, 13] = np.sin(angle)
        out[:, 14] = np.cos(angle)
        out[:, 15] = flag_spike
        out[:, 16] = flag_dropout
        out[:, 17] = flag_stuck

        self._prev2 = lag1.copy() if t == 0 else self._prev1
        self._prev1 = values.copy()
        self._t += 1
        return out

    def reset(self) -> None:
        """Forget all history (clear-sky profiles are pure; kept)."""
        self._hist.reset()
        self._roll.fill(0.0)
        self._prev1 = np.zeros(self.batch_size, dtype=float)
        self._prev2 = np.zeros(self.batch_size, dtype=float)
        self._zero_run.fill(0)
        self._t = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot sufficient to resume the feature stream exactly."""
        return {
            "n_slots": self.n_slots,
            "batch_size": self.batch_size,
            "t": self._t,
            "prev1": self._prev1.copy(),
            "prev2": self._prev2.copy(),
            "roll": self._roll.copy(),
            "zero_run": self._zero_run.copy(),
            "history": self._hist.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        if (
            int(state["n_slots"]) != self.n_slots
            or int(state["batch_size"]) != self.batch_size
        ):
            raise ValueError(
                f"feature snapshot is for N={state['n_slots']} "
                f"B={state['batch_size']}; this builder is "
                f"N={self.n_slots} B={self.batch_size}"
            )
        roll = np.asarray(state["roll"], dtype=float)
        if roll.shape != self._roll.shape:
            raise ValueError(
                f"feature snapshot rolling window has shape {roll.shape}; "
                f"expected {self._roll.shape}"
            )
        self._t = int(state["t"])
        self._prev1 = np.asarray(state["prev1"], dtype=float).copy()
        self._prev2 = np.asarray(state["prev2"], dtype=float).copy()
        self._roll = roll.copy()
        self._zero_run = np.asarray(state["zero_run"], dtype=np.int64).copy()
        self._hist.load_state_dict(state["history"])
