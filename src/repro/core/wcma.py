"""WCMA -- the solar-energy predictor evaluated by the paper.

Implements the algorithm of Recas et al. [5] exactly as specified by
Eqs. 1-5 of the paper (see module docstring of
:mod:`repro.metrics.errors` for the time-alignment convention):

.. math::

    \\hat e_{n+1} = \\alpha\\,\\tilde e(n)
                  + (1-\\alpha)\\,\\mu_D(n+1)\\,\\Phi_K

with :math:`\\mu_D(j)` the mean of the start-of-slot samples of slot *j*
over the last *D* days (Eq. 2) and the conditioning factor

.. math::

    \\Phi_K = \\frac{\\sum_{k=1}^{K} \\theta(k)\\,\\eta(k)}
                   {\\sum_{k=1}^{K} \\theta(k)},\\qquad
    \\eta(k) = \\frac{\\tilde e(n-K+k)}{\\mu_D(n-K+k)},\\qquad
    \\theta(k) = k/K.

Two engines are provided:

* The *online* recurrence a sensor node would run: O(D*N + K) state,
  one ``observe`` call per slot.  Its configuration, state, reset,
  ``μ_D`` refresh and snapshots are written once; two thin faces add
  ``observe``.  :class:`WCMAPredictor` steps one node in plain floats
  (node simulation, serve, the adaptive selector's experts, and the
  model the fixed-point port mirrors); :class:`WCMAVector` steps a
  ``(B,)`` batch of independent nodes in lock-step for the fleet
  simulator (:mod:`repro.management.fleet`) and matches the scalar
  face elementwise (parity-tested to 1e-9).
* :class:`WCMABatch` -- a vectorized engine over a whole trace, used by
  the parameter sweeps (Tables II, III, V; Fig. 7), where thousands of
  (alpha, D, K) combinations must be scored.

Night and dawn handling: where :math:`\\mu_D` is zero the ratio
:math:`\\eta` is undefined, and where it is merely *tiny* (first slots
after sunrise) the ratio explodes -- the sun's day-to-day elevation
drift can grow a near-horizon slot's power by an order of magnitude
over ``D`` days, so :math:`\\tilde e / \\mu_D` reaches 3-10 even on a
perfectly clear morning and would poison :math:`\\Phi_K` for the first
in-ROI predictions of the day.  Both implementations therefore
substitute the neutral value 1.0 whenever :math:`\\mu_D` at the ratio's
slot is below ``eta_floor_fraction`` (default 5 %) of the historical
daily peak of :math:`\\mu_D`.  This guard only affects slots the paper's
region-of-interest rule excludes from scoring anyway (Section III);
without it no parameter setting reproduces the paper's single-digit
MAPE values on sunny sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import (
    DayHistory,
    OnlinePredictor,
    PredictorState,
    VectorPredictor,
    as_batch,
    restore_array,
)
from repro.solar.slots import SlotView

__all__ = [
    "WCMAParams",
    "WCMAPredictor",
    "WCMAVector",
    "WCMABatch",
    "mu_matrix",
    "MU_EPS",
    "ETA_FLOOR_FRACTION",
]

#: Power (W/m^2) below which a past-days slot average counts as "night".
MU_EPS = 1e-6

#: Fraction of the historical daily peak of mu_D below which the eta
#: ratio is replaced by the neutral 1.0 (dawn guard; see module docstring).
ETA_FLOOR_FRACTION = 0.05


@dataclass(frozen=True)
class WCMAParams:
    """The three tunable parameters of the predictor (plus their ranges).

    Attributes
    ----------
    alpha:
        Weight of the persistence term, ``0 <= alpha <= 1`` (Eq. 1).
    days:
        ``D`` -- past days in the history matrix, ``D >= 1`` (the paper
        sweeps 2..20).
    k:
        ``K`` -- number of current-day slots feeding the conditioning
        factor, ``K >= 1`` (the paper sweeps 1..6).
    """

    alpha: float
    days: int
    k: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.days < 1:
            raise ValueError(f"days (D) must be >= 1, got {self.days}")
        if self.k < 1:
            raise ValueError(f"k (K) must be >= 1, got {self.k}")

    @staticmethod
    def theta(k_param: int) -> np.ndarray:
        """Weight vector ``θ(k) = k/K`` for ``k = 1..K`` (Eq. 5)."""
        return np.arange(1, k_param + 1, dtype=float) / k_param


class _WCMAState(PredictorState):
    """WCMA's configuration, state, reset, μ refresh and snapshot.

    The state is the ``D``-day history matrix (:class:`DayHistory`) and
    a ``K``-deep ring of the most recent ``η`` ratios, oldest first and
    pre-filled with the neutral 1.0 that stands in for ratios not yet
    seen; both gain a trailing batch axis when ``batch_size`` is set.
    ``μ_D`` depends only on *complete* days, so it is cached once per
    day (with the per-node dawn-guard floor) and ``observe`` is O(K).
    """

    kind = "wcma"

    def __init__(
        self,
        n_slots: int,
        params: WCMAParams,
        eta_floor_fraction: float,
        batch_size: Optional[int] = None,
    ):
        super().__init__(n_slots, batch_size)
        if not 0.0 <= eta_floor_fraction < 1.0:
            raise ValueError(
                f"eta_floor_fraction must be in [0, 1), got {eta_floor_fraction}"
            )
        self.params = params
        self.eta_floor_fraction = eta_floor_fraction
        self._history = DayHistory(n_slots, params.days, batch_size)
        self._recent_eta = np.ones((params.k,) + self._history.sample_shape)
        self._theta = WCMAParams.theta(params.k)
        self._theta_sum = float(self._theta.sum())
        self._mu_row = None  # mu_D per slot, fixed within a day
        self._eta_floor = 0.0
        self._mu_days_seen = 0

    def reset(self) -> None:
        self._history.reset()
        self._recent_eta.fill(1.0)
        self._mu_row = None
        self._eta_floor = 0.0
        self._mu_days_seen = 0

    def config(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "days": self.params.days,
            "k": self.params.k,
            "eta_floor_fraction": self.eta_floor_fraction,
        }

    def _state(self) -> dict:
        return {
            "history": self._history.state_dict(),
            "recent_eta": self._recent_eta.copy(),
        }

    def _load_state(self, state: dict) -> None:
        self._history.load_state_dict(state["history"])
        restore_array(self._recent_eta, state["recent_eta"], "recent_eta")
        # Derived caches: mark stale (-1 never equals a completed-days
        # count) so _refresh_mu recomputes them on the next observe.
        self._mu_row = None
        self._mu_days_seen = -1

    def _refresh_mu(self) -> None:
        """Recompute the μ_D row and the dawn-guard floor after a day completes."""
        completed = self._history.total_days_completed
        if completed == self._mu_days_seen:
            return
        self._mu_days_seen = completed
        self._mu_row = self._history.mu_rows(self.params.days)
        if self._mu_row is not None:
            self._eta_floor = np.maximum(
                self.eta_floor_fraction * self._mu_row.max(axis=0), MU_EPS
            )


class WCMAPredictor(_WCMAState, OnlinePredictor):
    """Online WCMA predictor with O(D*N) memory, as a node would run it.

    Parameters
    ----------
    n_slots:
        ``N`` -- slots (samples/predictions) per day.
    params:
        The (alpha, D, K) parameter set.

    Notes
    -----
    Until at least one full day of history exists the conditioned
    average term is unavailable and the predictor degrades to pure
    persistence (``ê = ẽ(n)``), which is also what the reference
    implementation of [5] does during warm-up.

    State, reset and snapshots are shared with :class:`WCMAVector`;
    only :meth:`observe` is written separately, in plain floats,
    because the one-node paths are hot (the adaptive selector steps 48
    WCMA experts per boundary, about two million observes per learned
    robustness matrix) and numpy's per-call overhead dominates at one
    node: on a 2-core x86 box under CPython 3.11 a ``WCMAVector`` at
    ``B=1`` takes about 11 µs per observe against about 3 µs here.
    """

    def __init__(
        self,
        n_slots: int,
        params: WCMAParams,
        eta_floor_fraction: float = ETA_FLOOR_FRACTION,
    ):
        super().__init__(n_slots, params, eta_floor_fraction)

    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        self._refresh_mu()
        slot = self._history.current_slot
        mu_row = self._mu_row
        # Roll the eta ring: the newest ratio lands at the back, where
        # theta(K) = 1 weights it most.
        ring = self._recent_eta
        ring[:-1] = ring[1:]
        if mu_row is None:
            ring[-1] = 1.0
            prediction = value  # warm-up: pure persistence
        else:
            mu_now = mu_row[slot]
            ring[-1] = value / mu_now if mu_now >= self._eta_floor else 1.0
            phi = float(np.dot(self._theta, ring) / self._theta_sum)
            prediction = (
                self.params.alpha * value
                + (1.0 - self.params.alpha) * mu_row[(slot + 1) % self.n_slots] * phi
            )
        self._history.push_slot(value)
        return float(prediction)


class WCMAVector(_WCMAState, VectorPredictor):
    """Lock-step WCMA over a batch of ``B`` independent nodes.

    The state of :class:`WCMAPredictor` with a trailing batch axis: the
    history matrix is ``(D, N, B)``, the ``η`` ring is ``(K, B)`` and
    the dawn-guard floor is per node.  The slot/day counters are shared
    scalars because every node crosses the same boundary at once.

    Parameters are shared across the batch; a heterogeneous fleet mixes
    parameter sets by running one :class:`WCMAVector` per distinct
    configuration (this is what :class:`~repro.management.fleet.FleetSimulator`
    does when it groups nodes).
    """

    def __init__(
        self,
        n_slots: int,
        params: WCMAParams,
        batch_size: int,
        eta_floor_fraction: float = ETA_FLOOR_FRACTION,
    ):
        super().__init__(n_slots, params, eta_floor_fraction, batch_size)

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        self._refresh_mu()
        slot = self._history.current_slot
        mu_rows = self._mu_row
        ring = self._recent_eta
        ring[:-1] = ring[1:]
        if mu_rows is None:
            ring[-1] = 1.0
            prediction = values.copy()  # warm-up: pure persistence
        else:
            mu_now = mu_rows[slot]
            ring[-1] = 1.0
            np.divide(values, mu_now, out=ring[-1], where=mu_now >= self._eta_floor)
            phi = self._theta @ ring / self._theta_sum
            prediction = (
                self.params.alpha * values
                + (1.0 - self.params.alpha) * mu_rows[(slot + 1) % self.n_slots] * phi
            )
        self._history.push_slot(values)
        return prediction


def mu_matrix(starts: np.ndarray, days: int) -> np.ndarray:
    """``μ_D`` for every (day, slot): mean of the previous ``days`` rows.

    Parameters
    ----------
    starts:
        ``(n_days, N)`` start-of-slot sample matrix.
    days:
        History depth ``D``.

    Returns
    -------
    numpy.ndarray
        ``(n_days, N)`` where row ``d`` holds
        ``mean(starts[d-days:d], axis=0)``; rows ``d < days`` are NaN
        (insufficient history).
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2:
        raise ValueError(f"starts must be 2-D, got shape {starts.shape}")
    n_days = starts.shape[0]
    if days < 1:
        raise ValueError("days must be >= 1")
    out = np.full_like(starts, np.nan)
    if n_days <= days:
        return out
    csum = np.vstack([np.zeros((1, starts.shape[1])), np.cumsum(starts, axis=0)])
    out[days:] = (csum[days:-1] - csum[:-days - 1])[: n_days - days] / days
    # the slice above yields rows for d = days..n_days-1
    return out


class WCMABatch:
    """Vectorized WCMA evaluation over an entire trace.

    The sweep-engine v2 kernel set.  Three levels of sharing keep the
    exhaustive grid searches of Tables II/III/V cheap:

    * **Per trace** -- one prefix sum over the day axis
      (:meth:`_day_csum`) from which ``μ_D`` for *every* history depth
      ``D`` is a single slice-subtract-divide (no per-``D``
      recomputation).
    * **Per D** -- the flat ``μ_D`` and ``η`` series are memoised; ``η``
      reuses the cached ``μ`` matrix instead of rebuilding it.
    * **Per (D, K)** -- ``Φ_K`` comes from a sliding-window recurrence:
      with ``θ(k) = k/K`` the numerator is ``(1/K)·Σ k·η`` over the
      window, so two running sums (plain and lag-weighted) advance from
      ``K-1`` to ``K`` with one shifted add each, making every ``K``
      incremental instead of ``O(K)`` passes.  The *conditioned average
      term* ``q[t] = μ_D(t+1) * Φ_K(t)`` is memoised per ``(D, K)``.

    A prediction for any ``alpha`` is then the one-liner
    ``alpha * s[:-1] + (1 - alpha) * q``.  For whole-grid sweeps,
    :meth:`conditioned_stack` additionally evaluates the stacked
    ``(D, K)`` conditioned terms at a set of scored boundary indices in
    one batched pass (the input of the fused error-cube kernel in
    :mod:`repro.core.optimizer`).

    All flat arrays are aligned on the boundary index
    ``t = day * N + slot``; entries where history is incomplete are NaN.
    The pre-v2 kernels are preserved in
    :mod:`repro.core.sweep_reference` and pinned against these by the
    parity suite.
    """

    def __init__(self, view: SlotView, eta_floor_fraction: float = ETA_FLOOR_FRACTION):
        if not 0.0 <= eta_floor_fraction < 1.0:
            raise ValueError(
                f"eta_floor_fraction must be in [0, 1), got {eta_floor_fraction}"
            )
        self.view = view
        self.n_slots = view.n_slots
        self.eta_floor_fraction = eta_floor_fraction
        self.starts_flat = view.flat_starts()
        self.means_flat = view.flat_means()
        self._csum: np.ndarray = None  # (n_days + 1, N) day-axis prefix sum
        self._mu2d_cache: Dict[int, np.ndarray] = {}
        self._mu_cache: Dict[int, np.ndarray] = {}
        self._eta_cache: Dict[int, np.ndarray] = {}
        self._phi_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._window_cache: Dict[int, list] = {}  # D -> [K_done, B, W]
        self._q_cache: Dict[Tuple[int, int], np.ndarray] = {}
        # conditioned_stack workspace, keyed by its shape: repeated
        # sweep chunks reuse the lag/window buffers instead of paying a
        # fresh multi-MB allocation (page faults) per chunk.
        self._stack_scratch_key: Tuple[int, int, int] = None
        self._stack_scratch: Tuple[np.ndarray, np.ndarray, np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace, n_slots: int) -> "WCMABatch":
        """Build directly from a :class:`~repro.solar.trace.SolarTrace`."""
        return cls(SlotView.from_trace(trace, n_slots))

    @property
    def n_boundaries(self) -> int:
        """Total number of slot boundaries in the trace."""
        return self.starts_flat.size

    # ------------------------------------------------------------------
    def _day_csum(self) -> np.ndarray:
        """Shared day-axis prefix sum: ``csum[d] = Σ starts[:d]``.

        Computed once; ``μ_D`` for any ``D`` is then
        ``(csum[D:-1] - csum[:-D-1]) / D`` -- bit-identical to what
        :func:`mu_matrix` produces, without re-running the cumulative
        sum per depth.
        """
        if self._csum is None:
            starts = self.view.starts
            self._csum = np.vstack(
                [np.zeros((1, starts.shape[1])), np.cumsum(starts, axis=0)]
            )
        return self._csum

    def mu2d(self, days: int) -> np.ndarray:
        """``μ_D`` as a ``(n_days, N)`` matrix (NaN rows during warm-up)."""
        if days < 1:
            raise ValueError("days must be >= 1")
        if days not in self._mu2d_cache:
            starts = self.view.starts
            csum = self._day_csum()
            out = np.empty_like(starts)
            out[: min(days, starts.shape[0])] = np.nan
            if starts.shape[0] > days:
                np.subtract(csum[days:-1], csum[: -days - 1], out=out[days:])
                out[days:] /= days
            self._mu2d_cache[days] = out
        return self._mu2d_cache[days]

    def mu_flat(self, days: int) -> np.ndarray:
        """Flat ``μ_D`` series (NaN during the first ``days`` days)."""
        if days not in self._mu_cache:
            self._mu_cache[days] = self.mu2d(days).reshape(-1)
        return self._mu_cache[days]

    def eta_flat(self, days: int) -> np.ndarray:
        """Flat ``η`` series: ``s/μ_D`` with the night/dawn guard.

        The guard threshold is per day: ``eta_floor_fraction`` times that
        day's peak ``μ_D`` value (mirroring the online predictor, where
        the node knows its own history matrix).
        """
        if days not in self._eta_cache:
            mu2d = self.mu2d(days)
            # mu rows are all-finite (complete history) or all-NaN
            # (warm-up): a plain max propagates NaN into the floor,
            # whose comparison below is then False for the whole row --
            # the same exclusion the old where(-inf) dance produced.
            day_peak = mu2d.max(axis=1, keepdims=True)
            floor2d = np.maximum(self.eta_floor_fraction * day_peak, MU_EPS)
            mu = mu2d.reshape(-1)
            floor = np.broadcast_to(floor2d, mu2d.shape).reshape(-1)
            s = self.starts_flat
            bright = mu >= floor  # False on NaN mu/floor: warm-up stays dark
            # NaN on warm-up rows, neutral 1.0 under the dawn guard, and
            # the true ratio where mu is bright -- the where-divide
            # computes the same element divisions as masked indexing
            # would, without the gather/scatter round trip.
            eta = np.where(np.isfinite(mu), 1.0, np.nan)
            np.divide(s, mu, out=eta, where=bright)
            self._eta_cache[days] = eta
        return self._eta_cache[days]

    def phi_flat(self, days: int, k_param: int) -> np.ndarray:
        """Flat ``Φ_K`` series (Eq. 3); NaN where the lookback is short.

        Sliding-window form: with ``θ(k) = k/K`` the weighted numerator
        over the window is ``(1/K)·Σ_k k·η``, so two running sums --
        ``B[t] = Σ_{j<K} η(t-j)`` (plain) and ``W[t] = Σ_{j<K} j·η(t-j)``
        (lag-weighted) -- give every ``K`` incrementally:

        ``Φ_K(t) = (K·B[t] - W[t]) · 2 / (K·(K+1))``

        Advancing ``K -> K+1`` costs one shifted add per running sum
        instead of the ``O(K)`` shifted adds of the reference kernel.
        The sums are cached per ``D`` and every intermediate ``K``
        passed on the way up is cached too, so requesting a smaller
        ``K`` later is a pure cache hit.
        """
        if k_param < 1:
            raise ValueError("K must be >= 1")
        key = (days, k_param)
        if key not in self._phi_cache:
            state = self._window_cache.get(days)
            if state is None:
                zeros = np.zeros(self.n_boundaries, dtype=float)
                state = [0, zeros, zeros.copy()]
                self._window_cache[days] = state
            k_done, window, weighted = state
            eta = self.eta_flat(days)
            for k in range(k_done + 1, k_param + 1):
                lag = k - 1
                if lag == 0:
                    window += eta
                else:
                    window[lag:] += eta[:-lag]
                    weighted[lag:] += lag * eta[:-lag]
                phi = (k * window - weighted) * (2.0 / (k * (k + 1)))
                phi[: k - 1] = np.nan  # incomplete lookback at trace start
                self._phi_cache[(days, k)] = phi
            state[0] = max(k_done, k_param)
        return self._phi_cache[key]

    def conditioned_term(self, days: int, k_param: int) -> np.ndarray:
        """``q[t] = μ_D(t+1) · Φ_K(t)``, length ``n_boundaries - 1``."""
        key = (days, k_param)
        if key not in self._q_cache:
            mu = self.mu_flat(days)
            phi = self.phi_flat(days, k_param)
            self._q_cache[key] = mu[1:] * phi[:-1]
        return self._q_cache[key]

    def conditioned_stack(
        self,
        days_seq: Sequence[int],
        ks_seq: Sequence[int],
        idx: np.ndarray,
        out: np.ndarray = None,
    ) -> np.ndarray:
        """Conditioned terms for a block of ``(D, K)`` pairs at ``idx``.

        The sweep-side kernel: evaluates
        ``q[D, K, t] = μ_D(t+1) · Φ_K(t)`` for every ``D`` in
        ``days_seq`` x every ``K`` in ``ks_seq``, but *only* at the
        scored boundary indices ``idx`` (sorted ascending, e.g.
        :func:`repro.metrics.roi.roi_indices`), returning shape
        ``(len(days_seq), len(ks_seq), len(idx))``.

        Compared to gathering from :meth:`conditioned_term`, this skips
        materialising the full-length ``Φ``/``q`` series: the ``η``
        values each window needs (lags ``0..max(K)-1`` of every scored
        boundary, which may straddle unscored slots) are gathered once,
        after which the sliding-window sums, the ``Φ`` scaling, the
        ``μ`` product and every downstream error op touch only the
        scored subset -- typically ~25 % of the trace under the
        region-of-interest rule.  Memory is ``O(len(days_seq) · max(K) ·
        len(idx))`` for the lag tensor -- callers bound it by chunking
        ``days_seq`` (see ``grid_search``'s ``d_chunk``).

        ``μ`` and ``η`` per ``D`` go through the same memos as the
        scalar API, so repeated sweeps on one batch stay shared.  The
        internal lag/window buffers persist on the batch and are reused
        by same-shaped chunks; pass ``out`` (same shape as the result)
        to recycle the output allocation as well.
        """
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_boundaries - 1):
            raise ValueError(
                "idx must hold boundary indices in [0, n_boundaries - 1)"
            )
        days_seq = tuple(days_seq)
        ks_seq = tuple(ks_seq)
        if min(ks_seq) < 1:
            raise ValueError("K must be >= 1")
        n_block = len(days_seq)
        max_k = max(ks_seq)
        n_sel = idx.size
        scratch_key = (n_block, max_k, n_sel)
        if self._stack_scratch_key == scratch_key:
            lags, numer, mu_next = self._stack_scratch
        else:
            lags = np.empty((n_block, max_k, n_sel), dtype=float)
            numer = np.empty((n_block, n_sel), dtype=float)
            mu_next = np.empty((n_block, n_sel), dtype=float)
            self._stack_scratch_key = scratch_key
            self._stack_scratch = (lags, numer, mu_next)
        nxt = idx + 1
        for ci, d in enumerate(days_seq):
            mu_next[ci] = self.mu_flat(d)[nxt]
        # Gathered eta neighbourhoods: lags[:, j] = eta(t - j) at every
        # scored t.  (Lag indices clamped at 0 are start-of-trace
        # positions whose phi is NaN-masked below.)
        src = np.maximum(idx[None, :] - np.arange(max_k)[:, None], 0)
        for ci, d in enumerate(days_seq):
            lags[ci] = self.eta_flat(d)[src]
        # Double recurrence for the theta-weighted numerator
        # A_K = sum_{j<K} (K-j) eta(t-j):  B_K = B_{K-1} + eta(t-K+1)
        # (plain window sum) and A_K = A_{K-1} + B_K -- one add each per
        # unit of K.  phi_K is then A_K * 2/(K*(K+1)).
        positions = {}
        for j, k in enumerate(ks_seq):
            positions.setdefault(k, []).append(j)
        out_arr = (
            out
            if out is not None
            else np.empty((n_block, len(ks_seq), n_sel), dtype=float)
        )
        window = lags[:, 0]  # B_1; accumulated in place across K
        np.copyto(numer, window)  # A_1 == B_1
        for k in range(1, max_k + 1):
            if k > 1:
                window += lags[:, k - 1]
                numer += window
            slots = positions.get(k)
            if not slots:
                continue
            q_k = out_arr[:, slots[0]]
            np.multiply(numer, mu_next, out=q_k)
            if k > 1:
                q_k *= 2.0 / (k * (k + 1))
                if n_sel and idx[0] < k - 1:
                    # incomplete lookback at trace start (idx sorted)
                    q_k[:, : np.searchsorted(idx, k - 1)] = np.nan
            for j in slots[1:]:
                out_arr[:, j] = q_k
        return out_arr

    def predictions(self, params: WCMAParams) -> np.ndarray:
        """Predictions ``p[t]`` for ``t = 0 .. n_boundaries-2``.

        ``p[t]`` is the prediction made at boundary ``t`` for the slot
        beginning there (Eq. 1).  NaN where history is incomplete.
        """
        q = self.conditioned_term(params.days, params.k)
        return params.alpha * self.starts_flat[:-1] + (1.0 - params.alpha) * q

    # ------------------------------------------------------------------
    # References for error evaluation, aligned with ``predictions``.
    # ------------------------------------------------------------------
    @property
    def reference_mean(self) -> np.ndarray:
        """Slot-mean reference for Eq. 7 (``m[t]``)."""
        return self.means_flat[:-1]

    @property
    def reference_next_start(self) -> np.ndarray:
        """Next-boundary-sample reference for Eq. 6 (``s[t+1]``)."""
        return self.starts_flat[1:]
