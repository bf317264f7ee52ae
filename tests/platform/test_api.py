"""Direct unit tests for the MiddlewareAPI query surface.

The integration suite exercises the API through a full platform run; here
each query method is pinned down against a hand-built KV store and a stub
flow source, so regressions in key schema or index semantics show up
with a one-method blast radius.
"""

from __future__ import annotations

import pytest

from repro.events.vtff import TrafficLevel
from repro.kvstore import KeyValueStore, PubSub
from repro.platform.api import MiddlewareAPI

FLOWS = {1: {101: 1, 102: 4, 103: 9}}


def flow(window):
    return dict(FLOWS.get(window, {}))


@pytest.fixture()
def kv():
    return KeyValueStore()


@pytest.fixture()
def api(kv):
    return MiddlewareAPI(kv, flow, PubSub())


def _seed_vessel(kv, mmsi, t, forecast=None):
    state = {"t": t, "lat": 37.0, "lon": 24.0, "sog": 9.0}
    if forecast is not None:
        state["forecast"] = forecast
    kv.hmset(f"vessel:{mmsi}", state)
    kv.zadd("vessels:last_seen", t, str(mmsi))


class TestVesselQueries:
    def test_vessel_state_returns_stored_hash(self, api, kv):
        _seed_vessel(kv, 111, t=60.0)
        state = api.vessel_state(111)
        assert state["t"] == 60.0
        assert state["lat"] == 37.0

    def test_unknown_vessel_state_is_none(self, api):
        assert api.vessel_state(999) is None

    def test_forecast_extracted_from_state(self, api, kv):
        track = [(60.0, 37.0, 24.0), (120.0, 37.1, 24.1)]
        _seed_vessel(kv, 111, t=60.0, forecast=track)
        assert api.vessel_forecast(111) == track

    def test_forecast_none_when_vessel_unseen(self, api):
        assert api.vessel_forecast(999) is None

    def test_forecast_none_when_state_has_no_forecast(self, api, kv):
        _seed_vessel(kv, 111, t=60.0)
        assert api.vessel_forecast(111) is None

    def test_active_vessels_filters_by_since_and_sorts(self, api, kv):
        _seed_vessel(kv, 300, t=30.0)
        _seed_vessel(kv, 100, t=100.0)
        _seed_vessel(kv, 200, t=200.0)
        assert api.active_vessels() == [100, 200, 300]
        assert api.active_vessels(since_t=100.0) == [100, 200]
        assert api.active_vessels(since_t=201.0) == []

    def test_vessel_count_tracks_distinct_mmsis(self, api, kv):
        assert api.vessel_count() == 0
        _seed_vessel(kv, 1, t=10.0)
        _seed_vessel(kv, 2, t=20.0)
        _seed_vessel(kv, 1, t=30.0)  # re-report, not a new vessel
        assert api.vessel_count() == 2


class TestEventQueries:
    def _seed_events(self, kv, kind, n):
        for i in range(n):
            kv.rpush(f"events:{kind}", {"n": i})

    def test_recent_events_returns_newest_last(self, api, kv):
        self._seed_events(kv, "proximity", 5)
        assert [e["n"] for e in api.recent_events("proximity", limit=3)] == [2, 3, 4]

    def test_recent_events_limit_exceeding_length(self, api, kv):
        self._seed_events(kv, "proximity", 2)
        assert len(api.recent_events("proximity", limit=50)) == 2

    def test_recent_events_empty_kind(self, api):
        assert api.recent_events("switchoff") == []

    def test_event_count_per_kind(self, api, kv):
        self._seed_events(kv, "collision", 4)
        assert api.event_count("collision") == 4
        assert api.event_count("proximity") == 0

    def test_subscribe_events_scoped_to_kind(self, kv):
        pubsub = PubSub()
        api = MiddlewareAPI(kv, flow, pubsub)
        only_collision = api.subscribe_events("collision")
        everything = api.subscribe_events()
        pubsub.publish("events:collision", {"a": 1})
        pubsub.publish("events:proximity", {"b": 2})
        assert [c for c, _ in only_collision.get_all()] == ["events:collision"]
        assert [c for c, _ in everything.get_all()] == ["events:collision", "events:proximity"]

    def test_subscribe_events_needs_a_pubsub(self, kv):
        # Over a replica's store there is no pub/sub to subscribe to.
        with pytest.raises(RuntimeError, match="pub/sub"):
            MiddlewareAPI(kv, flow).subscribe_events()


class TestTrafficQueries:
    def test_traffic_flow_for_window(self, api):
        assert api.traffic_flow(1) == {101: 1, 102: 4, 103: 9}

    def test_traffic_flow_unknown_window_empty(self, api):
        assert api.traffic_flow(3) == {}

    def test_traffic_heat_classifies_counts(self, api):
        heat = api.traffic_heat(1)
        assert heat == {101: TrafficLevel.LOW, 102: TrafficLevel.MEDIUM, 103: TrafficLevel.HIGH}
