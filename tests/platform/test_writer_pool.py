"""Tests of the node's one micro-batching writer."""

import math

from repro.events.proximity import ProximityPairEvent
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig
from repro.platform.messages import EventRecord, ProximityAlert, VesselStateUpdate

DEBOUNCE = PlatformConfig().event_debounce_s


def make_platform(**overrides):
    defaults = dict(writer_batch_max_ops=8, writer_batch_linger_s=0.5)
    defaults.update(overrides)
    return Platform(forecaster=LinearKinematicModel(), config=PlatformConfig(**defaults))


def vessel_keys(platform):
    return [key for key in platform.kvstore.snapshot_state()["data"] if key.startswith("vessel:")]


def state_update(mmsi, t, lat=10.0):
    return VesselStateUpdate(mmsi=mmsi, t=t, lat=lat, lon=20.0, sog=8.0, cog=90.0, forecast=None)


def prox_event(pair, t):
    return EventRecord(
        kind="proximity",
        t=t,
        payload=ProximityPairEvent(
            mmsi_a=pair[0], mmsi_b=pair[1], t=t, distance_m=100.0, lat=10.0, lon=20.0
        ),
    )


def owner_hit(pair, t):
    """A raw proximity hit, as a cell reports it to the pair's owner ``pair[0]``."""
    return ProximityAlert(event=prox_event(pair, t).payload)


def deliver(platform, hits):
    for hit in hits:
        platform.wiring.vessel_router.tell(hit.event.pair[0], hit)
    platform.system.run_until_idle()
    platform.wiring.writer_ref.flush()
    platform.system.run_until_idle()


def marks(platform, owner):
    return platform.system._cells[f"vessel-{owner}"].actor.event_marks


class TestOneWriter:
    def test_node_spawns_one_writer_named_writer(self):
        platform = make_platform()
        writer = platform.wiring.writer_ref
        assert writer.name == "writer"
        assert platform.system.exists("writer")
        assert not platform.system.exists("writer-0")
        assert writer.actors() == [writer.actor]


class TestBatching:
    def test_writes_buffer_until_threshold(self):
        platform = make_platform(writer_batch_max_ops=100, writer_batch_linger_s=0.0)
        writer = platform.wiring.writer_ref
        for i in range(5):
            writer.tell(state_update(200000000 + i, 10.0))
        platform.system.run_until_idle()
        # Buffered: nothing in the KV store yet, five states pending.
        assert writer.pending_ops == 10
        assert vessel_keys(platform) == []

        writer.flush()
        platform.system.run_until_idle()
        assert writer.pending_ops == 0
        assert len(vessel_keys(platform)) == 5
        assert writer.flushes == 1

    def test_max_ops_threshold_flushes(self):
        platform = make_platform(writer_batch_max_ops=6, writer_batch_linger_s=0.0)
        writer = platform.wiring.writer_ref
        for i in range(3):  # 3 states = 6 pending kv ops = threshold
            writer.tell(state_update(200000000 + i, 10.0))
        platform.system.run_until_idle()
        assert writer.flushes == 1
        assert len(vessel_keys(platform)) == 3

    def test_linger_timer_flushes_on_virtual_time(self):
        platform = make_platform(writer_batch_max_ops=100, writer_batch_linger_s=2.0)
        writer = platform.wiring.writer_ref
        writer.tell(state_update(200000001, 10.0))
        platform.system.run_until_idle()
        assert writer.pending_ops == 2
        platform.system.advance_time(2.5)
        platform.system.run_until_idle()
        assert writer.pending_ops == 0
        assert platform.kvstore.hgetall("vessel:200000001")

    def test_states_coalesce_last_wins(self):
        platform = make_platform(writer_batch_max_ops=100, writer_batch_linger_s=0.0)
        writer = platform.wiring.writer_ref
        for t in (10.0, 40.0, 70.0):
            writer.tell(state_update(200000001, t, lat=t))
        platform.system.run_until_idle()
        assert writer.pending_ops == 2  # one coalesced state
        writer.flush()
        platform.system.run_until_idle()
        state = platform.kvstore.hgetall("vessel:200000001")
        assert state["t"] == 70.0
        assert state["lat"] == 70.0
        assert writer.states_written == 3  # accepted updates still counted

    def test_events_are_not_coalesced(self):
        platform = make_platform(writer_batch_max_ops=100, writer_batch_linger_s=0.0)
        writer = platform.wiring.writer_ref
        # Every record the writer receives is written, repeats included.
        writer.tell(prox_event((111, 555), 0.0))
        for i in range(3):
            writer.tell(prox_event((111 + i, 555), float(i)))
        writer.flush()
        platform.system.run_until_idle()
        assert platform.kvstore.llen("events:proximity") == 4
        assert platform.kvstore.zcard("events:all") == 4

    def test_events_all_members_unique(self):
        platform = make_platform(writer_batch_max_ops=1)
        writer = platform.wiring.writer_ref
        for i in range(30):
            writer.tell(prox_event((400 + i, 900 + i), float(i)))
        writer.flush()
        platform.system.run_until_idle()
        assert platform.kvstore.zcard("events:all") == 30
        # The stored id format keeps its fixed middle field.
        members = {m for m, _ in platform.kvstore.zrangebyscore("events:all", -math.inf, math.inf)}
        assert members == {f"proximity:0:{n}" for n in range(30)}

    def test_process_available_flushes(self):
        from repro.ais.datasets import proximity_scenario

        scenario = proximity_scenario(
            n_event_pairs=2, n_near_miss_pairs=1, n_background=2, duration_s=1_800.0, seed=7
        )
        platform = make_platform(writer_batch_max_ops=10_000, writer_batch_linger_s=60.0)
        platform.publish_messages(scenario.result.messages)
        platform.process_available()
        # Despite huge batch limits, the barrier flush landed everything.
        writer = platform.wiring.writer_ref
        assert writer.pending_ops == 0
        assert platform.api.vessel_count() == scenario.n_vessels


class TestDedupBound:
    """Records reach the writer through the pair's owner vessel, which drops
    repeats. Its marks are bounded by age: one bucket back from the newest."""

    def test_event_dedup_stays_bounded(self):
        """Regression: many distinct encounter pairs once grew the dedup
        state without bound."""
        platform = make_platform()
        hits = [owner_hit((100000 + i % 10, 200000 + i), i * DEBOUNCE) for i in range(1_000)]
        deliver(platform, hits)
        # Each owner's hits are ten buckets apart: it holds only its newest mark.
        assert [len(marks(platform, 100000 + k)) for k in range(10)] == [1] * 10
        # Every distinct pair was still written (dedup only kills repeats).
        assert platform.wiring.writer_ref.events_written == 1_000
        assert platform.kvstore.llen("events:proximity") == 1_000

    def test_debounce_still_works_within_bound(self):
        platform = make_platform()
        # Fifty buckets of distinct pairs: the bound has pruned the marks many times.
        deliver(platform, [owner_hit((111, 300 + k), k * DEBOUNCE) for k in range(50)])
        # Same pair, same bucket.
        deliver(platform, [owner_hit((111, 222), 49 * DEBOUNCE + 1.0) for _ in range(5)])
        assert platform.wiring.writer_ref.events_written == 51
        assert {mark[2] for mark in marks(platform, 111)} == {48, 49}

    def test_expired_entries_pruned_first(self):
        platform = make_platform()
        old = [owner_hit((5000, 6000 + i), float(i)) for i in range(11)]  # all in bucket 0
        deliver(platform, old + [owner_hit((5000, 7000), DEBOUNCE)])
        assert len(marks(platform, 5000)) == 12  # bucket 0 is one bucket back: kept
        deliver(platform, [owner_hit((5000, 8000), 2 * DEBOUNCE)])
        assert marks(platform, 5000) == {
            ("proximity", (5000, 7000), 1),
            ("proximity", (5000, 8000), 2),
        }
        assert platform.wiring.writer_ref.events_written == 13
