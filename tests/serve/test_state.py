"""Tests for predictor checkpointing and the on-disk state store.

The core guarantee: a predictor resumed from a checkpoint emits the
*same bits* as one that never stopped (the issue's acceptance bound is
1e-12; the implementation achieves exact equality by not serialising
derived caches and recomputing them deterministically on load).
"""

import pickle

import numpy as np
import pytest

from repro.core.base import DayHistory, OnlinePredictor
from repro.core.ewma import EWMAPredictor
from repro.core.registry import make_predictor, make_vector_predictor
from repro.core.wcma import WCMAParams, WCMAPredictor
from repro.serve.state import (
    STATE_FORMAT,
    STATE_VERSION,
    StateError,
    StateStore,
    state_digest,
)


def sample_stream(n_slots=48, days=6, seed=0):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(250.0, 90.0, n_slots * days))


PREDICTORS = {
    "wcma": lambda: WCMAPredictor(48, WCMAParams(alpha=0.5, days=4, k=3)),
    "ewma": lambda: EWMAPredictor(48, gamma=0.5),
}


class TestCheckpointResume:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    @pytest.mark.parametrize("cut", [1, 48 * 2 + 17, 48 * 5])
    def test_resume_equals_uninterrupted(self, name, cut):
        values = sample_stream()
        unbroken = PREDICTORS[name]()
        expected = [unbroken.observe(float(v)) for v in values]

        first = PREDICTORS[name]()
        head = [first.observe(float(v)) for v in values[:cut]]
        snapshot = pickle.loads(pickle.dumps(first.state_dict()))

        second = PREDICTORS[name]()
        second.load_state_dict(snapshot)
        tail = [second.observe(float(v)) for v in values[cut:]]

        resumed = np.asarray(head + tail)
        np.testing.assert_array_equal(resumed, np.asarray(expected))
        # ... which trivially satisfies the issue's 1e-12 bound.
        assert np.max(np.abs(resumed - np.asarray(expected))) <= 1e-12

    def test_snapshot_is_a_copy(self):
        p = PREDICTORS["wcma"]()
        for v in sample_stream()[:100]:
            p.observe(float(v))
        snap = p.state_dict()
        before = state_digest(snap)
        p.observe(500.0)
        assert state_digest(snap) == before, "snapshot aliased live state"

    def test_wcma_config_mismatch_rejected(self):
        snap = PREDICTORS["wcma"]().state_dict()
        with pytest.raises(ValueError, match="alpha"):
            WCMAPredictor(48, WCMAParams(alpha=0.9, days=4, k=3)).load_state_dict(snap)
        with pytest.raises(ValueError, match="not 'ewma'"):
            EWMAPredictor(48).load_state_dict(snap)

    def test_ewma_config_mismatch_rejected(self):
        snap = EWMAPredictor(48, gamma=0.5).state_dict()
        with pytest.raises(ValueError, match="gamma"):
            EWMAPredictor(48, gamma=0.25).load_state_dict(snap)

    def test_history_geometry_mismatch_rejected(self):
        h = DayHistory(n_slots=48, depth=4)
        with pytest.raises(ValueError, match="history"):
            DayHistory(n_slots=24, depth=4).load_state_dict(h.state_dict())

    def test_default_predictors_without_support_raise(self):
        class Bare(OnlinePredictor):
            def observe(self, value):
                return value

            def reset(self):
                pass

        with pytest.raises(NotImplementedError, match="Bare"):
            Bare().state_dict()
        with pytest.raises(NotImplementedError):
            Bare().load_state_dict({})

    def test_registry_core_predictors_checkpointable(self):
        for name in ("wcma", "ewma"):
            p = make_predictor(name, 48)
            p.observe(10.0)
            q = make_predictor(name, 48)
            q.load_state_dict(p.state_dict())
            assert q.observe(20.0) == make_and_replay(name, [10.0]).observe(20.0)


def make_and_replay(name, values):
    p = make_predictor(name, 48)
    for v in values:
        p.observe(v)
    return p


#: The five predictors written once as a PredictorState, each with a
#: non-default configuration so a config mix-up cannot pass unnoticed.
SHARED_STATE = {
    "wcma": {"alpha": 0.5, "days": 4, "k": 3},
    "ewma": {"gamma": 0.3},
    "persistence": {},
    "previous-day": {},
    "moving-average": {"days": 3},
}


def _shared(name, batch):
    kwargs = SHARED_STATE[name]
    if batch is None:
        return make_predictor(name, 48, **kwargs)
    return make_vector_predictor(name, 48, batch, **kwargs)


def _feed(predictor, rows):
    if rows.ndim == 2:
        return predictor.run(rows)
    return np.array([predictor.observe(float(v)) for v in rows])


class TestSharedStateRoundTrip:
    """Scalar and fleet faces snapshot the same state, bitwise."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("name", sorted(SHARED_STATE))
    @pytest.mark.parametrize("cut", [48 * 2 + 17, 48 * 5])
    def test_resume_is_bitwise(self, name, batch, cut):
        rows = sample_stream(days=7)
        if batch is not None:
            rows = np.stack([rows * (0.5 + 0.25 * b) for b in range(batch)], axis=1)
        unbroken = _shared(name, batch)
        expected = _feed(unbroken, rows)

        first = _shared(name, batch)
        head = _feed(first, rows[:cut])
        snapshot = pickle.loads(pickle.dumps(first.state_dict()))
        assert snapshot["batch_size"] == batch
        second = _shared(name, batch)
        second.load_state_dict(snapshot)
        tail = _feed(second, rows[cut:])

        np.testing.assert_array_equal(np.concatenate([head, tail]), expected)
        assert state_digest(second.state_dict()) == state_digest(unbroken.state_dict())

    @pytest.mark.parametrize("name", sorted(SHARED_STATE))
    def test_scalar_snapshot_refused_by_fleet_face(self, name):
        with pytest.raises(ValueError, match="batch_size"):
            _shared(name, 3).load_state_dict(_shared(name, None).state_dict())

    def test_previous_day_is_not_a_moving_average_snapshot(self):
        snap = make_predictor("moving-average", 48, days=1).state_dict()
        with pytest.raises(ValueError, match="not 'previous-day'"):
            make_predictor("previous-day", 48).load_state_dict(snap)


class TestStateDigest:
    def test_insertion_order_invariant(self):
        a = {"x": 1, "y": {"p": 2.0, "q": 3.0}}
        b = {"y": {"q": 3.0, "p": 2.0}, "x": 1}
        assert state_digest(a) == state_digest(b)

    def test_distinct_states_distinct_digests(self):
        p = PREDICTORS["ewma"]()
        d0 = state_digest(p.state_dict())
        p.observe(100.0)
        assert state_digest(p.state_dict()) != d0

    def test_digest_is_short_hex(self):
        d = state_digest({"a": 1})
        assert len(d) == 16
        int(d, 16)  # parses as hex


class TestStateStore:
    def test_round_trip(self, tmp_path):
        store = StateStore(tmp_path / "state")
        p = PREDICTORS["wcma"]()
        for v in sample_stream()[:130]:
            p.observe(float(v))
        state = {"predictor": p.state_dict(), "observed": 130}
        digest = store.save("SPMD", "wcma", state)
        assert digest == state_digest(state)
        loaded = store.load("SPMD", "wcma")
        assert state_digest(loaded) == digest
        q = PREDICTORS["wcma"]()
        q.load_state_dict(loaded["predictor"])
        assert q.observe(321.0) == p.observe(321.0)

    def test_missing_returns_none(self, tmp_path):
        assert StateStore(tmp_path).load("SPMD", "wcma") is None

    def test_identity_mismatch_rejected(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("SPMD", "wcma", {"observed": 1})
        # Same file name would be different (site, predictor) pairs; a
        # hand-copied file must still refuse to load.
        path = store.path_for("ECSU", "wcma")
        path.write_bytes(store.path_for("SPMD", "wcma").read_bytes())
        with pytest.raises(StateError, match="SPMD"):
            store.load("ECSU", "wcma")

    def test_version_and_format_validated(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("SPMD", "wcma", {"observed": 1})
        path = store.path_for("SPMD", "wcma")

        env = pickle.loads(path.read_bytes())
        env["version"] = STATE_VERSION + 1
        path.write_bytes(pickle.dumps(env))
        with pytest.raises(StateError, match="version"):
            store.load("SPMD", "wcma")

        env["version"] = STATE_VERSION
        env["format"] = "something else"
        path.write_bytes(pickle.dumps(env))
        with pytest.raises(StateError, match=STATE_FORMAT):
            store.load("SPMD", "wcma")

        path.write_bytes(b"not a pickle")
        with pytest.raises(StateError, match="cannot read"):
            store.load("SPMD", "wcma")

    def test_atomic_overwrite_keeps_old_state_on_failure(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("SPMD", "wcma", {"observed": 7})

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.save("SPMD", "wcma", {"observed": Unpicklable()})
        # The failed write neither corrupted the file nor left litter.
        assert store.load("SPMD", "wcma") == {"observed": 7}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_entries_round_trip_names(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("SPMD", "wcma", {"observed": 1})
        store.save("MY SITE/2024", "previous-day", {"observed": 2})
        (tmp_path / "junk.state.pkl").write_bytes(b"zzz")  # skipped quietly
        assert sorted(store.entries()) == [
            ("MY SITE/2024", "previous-day"),
            ("SPMD", "wcma"),
        ]

    def test_version_1_envelope_refused(self, tmp_path):
        """Snapshots from before the shared-state layout cannot load."""
        store = StateStore(tmp_path)
        path = store.path_for("SPMD", "wcma")
        p = PREDICTORS["wcma"]()
        p.observe(100.0)
        envelope = {
            "format": STATE_FORMAT,
            "version": 1,
            "site": "SPMD",
            "predictor": "wcma",
            "state": {"predictor": p.state_dict(), "observed": 1},
        }
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(StateError, match="version 1"):
            store.load("SPMD", "wcma")
