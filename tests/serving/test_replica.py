"""Read replica: feed application, parity with the primary, gap counting."""

from __future__ import annotations

import pytest

from repro.ais.message import AISMessage
from repro.platform import MiddlewareAPI, Platform, PlatformConfig
from repro.serving import REPL_FLUSH_CHANNEL, ReadReplica, ReplicaFeedPump


def _messages(n_vessels=3, n_fixes=4, lat0=40.0, lon0=24.0):
    msgs = [
        AISMessage(
            mmsi=111000 + i,
            t=60.0 * j,
            lat=lat0 + 0.01 * i,
            lon=lon0 + 0.01 * j,
            sog=8.0,
            cog=90.0,
        )
        for i in range(n_vessels)
        for j in range(n_fixes)
    ]
    msgs.sort(key=lambda m: m.t)
    return msgs


def _replicated_platform(**config_kwargs):
    config = PlatformConfig(serving_replica_feed=True, **config_kwargs)
    return Platform(config=config)


def _replica_api(replica):
    """The query API a serving tier builds over a replica."""
    return MiddlewareAPI(replica.store, replica.flow)


def test_feed_requires_opt_in():
    platform = Platform(config=PlatformConfig())
    with pytest.raises(RuntimeError):
        platform.subscribe_replication()


def test_replica_matches_primary_after_drain():
    platform = _replicated_platform()
    sub = platform.subscribe_replication()
    platform.publish_messages(_messages())
    platform.process_available()
    platform.publish_flow_snapshot()

    replica = ReadReplica()
    for channel, payload in sub.get_all():
        replica.apply(channel, payload)
    api = _replica_api(replica)
    primary = platform.api

    assert api.active_vessels() == primary.active_vessels()
    assert api.vessel_count() == primary.vessel_count()
    for mmsi in api.active_vessels():
        assert api.vessel_state(mmsi) == primary.vessel_state(mmsi)
        assert api.vessel_forecast(mmsi) == primary.vessel_forecast(mmsi)
    assert replica.gaps == 0
    assert primary.traffic_flow(1)
    assert api.traffic_flow(1) == primary.traffic_flow(1)
    assert api.traffic_heat(1) == primary.traffic_heat(1)


def test_replica_event_parity_with_pubsub_feed():
    """Every event notification on ``events:*`` appears in the replica."""
    platform = _replicated_platform()
    event_sub = platform.api.subscribe_events("*")
    repl_sub = platform.subscribe_replication()
    # Two slow vessels ~100 m apart in one cell: guaranteed collision
    # forecasts from the cell actor's CPA screening.
    msgs = []
    for j in range(5):
        msgs.append(AISMessage(mmsi=201, t=60.0 * j, lat=37.5, lon=24.5, sog=0.5, cog=0.0))
        msgs.append(
            AISMessage(mmsi=202, t=60.0 * j + 1.0, lat=37.5009, lon=24.5, sog=0.5, cog=0.0)
        )
    platform.publish_messages(msgs)
    platform.process_available()

    published = event_sub.get_all()
    assert published, "workload should have produced collision events"

    replica = ReadReplica()
    for channel, payload in repl_sub.get_all():
        replica.apply(channel, payload)
    api = _replica_api(replica)
    kinds = {channel.split(":", 1)[1] for channel, _ in published}
    total = sum(api.event_count(kind) for kind in kinds)
    assert total == len(published)
    assert replica.events_applied == len(published)
    assert replica.gaps == 0
    # Replicated payloads are plain dicts mirroring the event dataclass.
    sample = api.recent_events("collision", limit=1)[0]
    assert isinstance(sample, dict)
    assert {"mmsi_a", "mmsi_b", "t_expected"} <= set(sample)


def test_replica_trims_event_retention():
    replica = ReadReplica(events_max=5)
    for seq in range(1, 21):
        replica.apply_flush(
            {
                "shard": 0,
                "seq": seq,
                "states": [],
                "events": [{"kind": "proximity", "t": float(seq), "payload": {"n": seq}}],
            }
        )
    api = _replica_api(replica)
    assert api.event_count("proximity") == 5
    assert [e["n"] for e in api.recent_events("proximity")] == [16, 17, 18, 19, 20]
    assert replica.events_trimmed == 15


def test_replica_counts_sequence_gaps():
    replica = ReadReplica()
    replica.apply_flush({"shard": 1, "seq": 1, "states": [], "events": []})
    replica.apply_flush({"shard": 1, "seq": 2, "states": [], "events": []})
    replica.apply_flush({"shard": 1, "seq": 5, "states": [], "events": []})
    replica.apply_flush({"shard": 2, "seq": 1, "states": [], "events": []})
    assert replica.gaps == 1
    assert replica.last_seq == {1: 5, 2: 1}


def test_feed_pump_thread_applies_and_reports_drops():
    platform = _replicated_platform()
    sub = platform.subscribe_replication(maxlen=2048)
    replica = ReadReplica()
    pump = ReplicaFeedPump(sub, replica, poll_timeout_s=0.05).start()
    try:
        platform.publish_messages(_messages())
        platform.process_available()
        # The pump drains asynchronously; stop() drains the remainder.
    finally:
        pump.stop(drain=True)
    assert pump.messages_pumped > 0
    assert pump.feed_drops == 0
    assert replica.gaps == 0
    api = _replica_api(replica)
    assert api.active_vessels() == platform.api.active_vessels()


def test_feed_pump_counts_a_message_only_after_dispatching_it():
    """A waiter that sees ``messages_pumped == n`` and then queues work
    on the serving loop must land behind the n-th dispatch: the count
    moves after ``dispatch_threadsafe``, never before it."""
    from repro.kvstore import PubSub

    pubsub = PubSub()
    sub = pubsub.subscribe("repl:*", maxlen=16)
    for seq in range(1, 5):
        pubsub.publish(REPL_FLUSH_CHANNEL, {"shard": 0, "seq": seq, "states": [], "events": []})
    counts_at_dispatch = []

    class _Server:
        def dispatch_threadsafe(self, channel, payload):
            counts_at_dispatch.append(pump.messages_pumped)

    pump = ReplicaFeedPump(sub, ReadReplica(), server=_Server())
    assert pump.drain_pending() == 4
    assert counts_at_dispatch == [0, 1, 2, 3]
    assert pump.messages_pumped == 4


def test_bounded_feed_overflow_shows_up_as_gap():
    replica = ReadReplica()
    from repro.kvstore import PubSub

    pubsub = PubSub()
    sub = pubsub.subscribe("repl:*", maxlen=2)
    for seq in range(1, 6):
        pubsub.publish(REPL_FLUSH_CHANNEL, {"shard": 0, "seq": seq, "states": [], "events": []})
    for channel, payload in sub.get_all():
        replica.apply(channel, payload)
    assert sub.drop_count() == 3
    assert replica.gaps == 1  # one discontinuity (3 batches lost)
    assert replica.last_seq == {0: 5}  # but the newest state got through
