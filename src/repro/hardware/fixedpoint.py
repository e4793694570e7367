"""Q15 fixed-point implementation of the WCMA predictor.

The MSP430 has no FPU; a deployed implementation would use fixed-point
arithmetic (the float version costs ~4-9 uJ per prediction, the Q15
version roughly a tenth -- see :data:`repro.hardware.cycles.Q15_COSTS`).
This module implements the predictor with the integer operations such a
port would use, so the *quantisation error* can be measured against the
reference float implementation (see
``benchmarks/test_bench_fixedpoint.py``).

Number formats
--------------

* **Power samples** are quantised to unsigned Q15 codes relative to a
  configurable full scale: ``code = round(32767 * watts / full_scale)``.
  With the default 1500 W/m^2 full scale one LSB is ~0.046 W/m^2.
* **Ratios** (``η``, ``Φ``) use Q13 (1.0 = 8192), giving headroom to
  3.999 in a 16-bit word; larger ratios saturate.
* **Weights** (``θ``, ``alpha``) use Q15 in [0, 1].

All intermediates fit 32 bits, as they would on the 16-bit CPU with the
hardware 16x16->32 multiplier.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.base import DayHistory, OnlinePredictor
from repro.core.wcma import ETA_FLOOR_FRACTION, WCMAParams

__all__ = ["Q15", "Q13_ONE", "FixedPointWCMA"]

Q15_ONE = 1 << 15  # 32768
Q15_MAX = Q15_ONE - 1  # 32767, largest sample code
Q13_ONE = 1 << 13  # 8192, ratio format unit
Q13_MAX = (1 << 16) - 1  # ratio saturation (7.999 in Q13)


class Q15:
    """Q15 fixed-point helpers (static namespace)."""

    ONE = Q15_ONE
    MAX = Q15_MAX

    @staticmethod
    def from_float(value: float) -> int:
        """Quantise a float in [0, 1] to a Q15 code (saturating)."""
        code = int(round(value * Q15_ONE))
        return max(0, min(Q15_MAX, code))

    @staticmethod
    def to_float(code: int) -> float:
        """Q15 code back to float."""
        return code / Q15_ONE

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Q15 x Q15 -> Q15 (truncating, as the MCU shift would)."""
        return (a * b) >> 15

    @staticmethod
    def div(a: int, b: int) -> int:
        """Q15 / Q15 -> Q15, saturating at Q15_MAX; division by zero
        saturates too (the guard logic avoids it in practice)."""
        if b <= 0:
            return Q15_MAX
        return min(Q15_MAX, (a << 15) // b)


class FixedPointWCMA(OnlinePredictor):
    """WCMA predictor in Q15 integer arithmetic.

    Mirrors :class:`repro.core.wcma.WCMAPredictor` step for step --
    same history handling, same dawn guard -- but every quantity lives
    in a 16-bit fixed-point format.  ``observe`` accepts and returns
    floats (watts) at the boundary; the conversion models the ADC
    quantisation a real node experiences anyway.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    params:
        The (alpha, D, K) parameter set.
    full_scale_watts:
        Power mapped to the maximum sample code; samples above it
        saturate.
    eta_floor_fraction:
        Dawn guard threshold (see :mod:`repro.core.wcma`).
    """

    def __init__(
        self,
        n_slots: int,
        params: WCMAParams,
        full_scale_watts: float = 1500.0,
        eta_floor_fraction: float = ETA_FLOOR_FRACTION,
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if full_scale_watts <= 0:
            raise ValueError("full_scale_watts must be positive")
        if not 0.0 <= eta_floor_fraction < 1.0:
            raise ValueError(
                f"eta_floor_fraction must be in [0, 1), got {eta_floor_fraction}"
            )
        self.n_slots = n_slots
        self.params = params
        self.full_scale_watts = full_scale_watts
        self.eta_floor_fraction = eta_floor_fraction
        self._alpha_q = Q15.from_float(params.alpha)
        # theta(k) = k/K in Q15, oldest first.
        self._theta_q = [
            Q15.from_float(k / params.k) for k in range(1, params.k + 1)
        ]
        self._theta_sum_q = sum(self._theta_q)
        self._history = DayHistory(n_slots=n_slots, depth=params.days)
        self._recent_eta_q13 = deque(maxlen=params.k)
        self._mu_codes: np.ndarray = None
        self._eta_floor_code = 0
        self._mu_days_seen = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._history.reset()
        self._recent_eta_q13.clear()
        self._mu_codes = None
        self._eta_floor_code = 0
        self._mu_days_seen = 0

    def quantise(self, watts: float) -> int:
        """Power in watts -> sample code (the modelled ADC reading)."""
        if watts < 0:
            raise ValueError(f"power must be non-negative, got {watts}")
        code = int(round(watts / self.full_scale_watts * Q15_MAX))
        return min(Q15_MAX, code)

    def dequantise(self, code: int) -> float:
        """Sample code -> watts."""
        return code * self.full_scale_watts / Q15_MAX

    def observe(self, value: float) -> float:
        code = self.quantise(value)
        self._refresh_mu()
        slot = self._history.current_slot
        have_history = self._mu_codes is not None

        if have_history:
            mu_now = int(self._mu_codes[slot])
            if mu_now >= self._eta_floor_code and mu_now > 0:
                eta_q13 = min(Q13_MAX, (code * Q13_ONE) // mu_now)
            else:
                eta_q13 = Q13_ONE
        else:
            eta_q13 = Q13_ONE
        self._recent_eta_q13.append(eta_q13)

        if have_history:
            mu_next = int(self._mu_codes[(slot + 1) % self.n_slots])
            phi_q13 = self._phi_q13()
            # Eq. 1 in integer arithmetic.
            persistence = (self._alpha_q * code) >> 15
            conditioned = (mu_next * phi_q13) >> 13
            conditioned = ((Q15_ONE - self._alpha_q) * conditioned) >> 15
            prediction_code = min(Q15_MAX, persistence + conditioned)
        else:
            prediction_code = code

        # History stores the *quantised* sample, as real firmware would.
        self._history.push_slot(float(code))
        return self.dequantise(prediction_code)

    # ------------------------------------------------------------------
    def _refresh_mu(self) -> None:
        completed = self._history.total_days_completed
        if completed == self._mu_days_seen:
            return
        self._mu_days_seen = completed
        rows = self._history.recent_rows(self.params.days)
        if not len(rows):
            self._mu_codes = None
            self._eta_floor_code = 0
            return
        # Integer mean, matching a 32-bit accumulator divided on the MCU.
        sums = rows.sum(axis=0).astype(np.int64)
        self._mu_codes = sums // rows.shape[0]
        self._eta_floor_code = max(
            int(self.eta_floor_fraction * int(self._mu_codes.max())), 1
        )

    def _phi_q13(self) -> int:
        """Conditioning factor in Q13 from the buffered ratios."""
        k_param = self.params.k
        n_have = len(self._recent_eta_q13)
        acc = 0
        # Missing oldest ratios count as neutral 1.0 (Q13_ONE).
        for idx in range(k_param):
            buffered = idx - (k_param - n_have)
            eta = (
                self._recent_eta_q13[buffered] if buffered >= 0 else Q13_ONE
            )
            acc += self._theta_q[idx] * eta
        return acc // self._theta_sum_q
