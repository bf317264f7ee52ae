"""Integration tests for live shard migration: the telemetry-driven
rebalancer moving entity state between running nodes, suffix-only
replay, graceful drain (scale-in) with output absorption and live add
(scale-out).

Deterministic throughout — virtual clock, explicitly pumped loopback
hub, and a planner that consumes only message counts."""

from __future__ import annotations

import pytest

from repro.ais.datasets import proximity_scenario
from repro.ais.message import AISMessage
from repro.cluster import ClusterConfig
from repro.evaluation import seeded_svrf_forecaster
from repro.platform import LoopbackCluster
from repro.platform.config import PlatformConfig

#: Rebalance knobs matching the sim campaign: report every 0.5 s of
#: virtual time, evaluate every 2 s, plan once 16 messages accumulate.
REBALANCE_CONFIG = dict(
    load_report_interval_s=0.5, rebalance_interval_s=2.0, rebalance_min_messages=16
)


def mmsis_owned_by(cluster, node_id, count, start=1):
    """The first ``count`` mmsis whose vessel shard the current table
    assigns to ``node_id`` (pure hashing — deterministic)."""
    router = cluster.seed.wiring.vessel_router
    picked = []
    mmsi = start
    while len(picked) < count:
        if router.owner_of(mmsi) == node_id:
            picked.append(mmsi)
        mmsi += 1
        if mmsi > start + 100_000:
            raise RuntimeError(f"no mmsis owned by {node_id}")
    return picked


def skewed_chunk(mmsis, round_idx, fixes_per_vessel=8):
    """One round of sub-30 s fix bursts for the skewed fleet.

    Rounds are 60 s apart, fixes within a round 4 s apart: exactly one
    fix per vessel per round survives the downsampler (kept_fixes counts
    rounds), but *every* fix crosses the victim's vessel router — the
    load signal stays concentrated where the vessels are hosted instead
    of fanning out through cell/forecast traffic."""
    chunk = []
    for i, mmsi in enumerate(mmsis):
        base = 1.0 + round_idx * 60.0
        for j in range(fixes_per_vessel):
            chunk.append(
                AISMessage(
                    mmsi=mmsi,
                    t=base + j * 4.0 + i * 0.001,
                    lat=44.0 + i * 0.5,
                    lon=8.0,
                    sog=0.2,
                    cog=0.0,
                )
            )
    return chunk


def vessel_actor(cluster, mmsi):
    """(hosting platform, vessel actor) for ``mmsi``, or (None, None)."""
    for platform in cluster.platforms:
        cell = platform.system._cells.get(f"vessel-{mmsi}")
        if cell is not None:
            return platform, cell.actor
    return None, None


class TestLiveRebalance:
    def test_skew_triggers_migration_preserving_state(self):
        """All load on one node's shards: the leader must plan, the moved
        twins must keep their full history (kept_fixes equals the number
        of fixes published — a fresh actor would hold zero, since the
        post-migration replay covers only the empty stream suffix)."""
        cluster = LoopbackCluster(num_nodes=3, cluster_config=ClusterConfig(**REBALANCE_CONFIG))
        try:
            victim = "node-01"
            hot = mmsis_owned_by(cluster, victim, 6)
            leader = cluster.nodes[0]
            rounds = 0
            while leader.rebalancer.plans_total == 0 and rounds < 12:
                cluster.seed.publish_messages(skewed_chunk(hot, rounds))
                cluster.process_available()
                cluster.tick(1.0)
                rounds += 1
            assert leader.rebalancer.plans_total >= 1, (
                "a 6-vessels-on-one-node skew never triggered the "
                f"control loop after {rounds} rounds"
            )
            cluster.settle()

            hosts = {m: vessel_actor(cluster, m)[0] for m in hot}
            assert all(p is not None for p in hosts.values())
            moved = [m for m in hot if hosts[m].node.node_id != victim]
            assert moved, "plans executed but every hot vessel stayed put"
            for mmsi in moved:
                _, actor = vessel_actor(cluster, mmsi)
                # One kept fix per round: full history came across.
                assert actor.kept_fixes == rounds
                assert actor.last_message is not None
            assert sum(n.state_transfers_received for n in cluster.nodes) > 0
        finally:
            cluster.shutdown()

    def test_rebalance_replays_only_the_suffix(self):
        """A fully ingested stream at migration time leaves an *empty*
        suffix: the post-plan replay re-dispatches zero records (the
        bounded-depth fallback would re-dispatch hundreds)."""
        cluster = LoopbackCluster(num_nodes=3, cluster_config=ClusterConfig(**REBALANCE_CONFIG))
        try:
            leader = cluster.nodes[0]
            hot = mmsis_owned_by(cluster, "node-01", 6)
            rounds = 0
            while leader.rebalancer.plans_total == 0 and rounds < 12:
                cluster.seed.publish_messages(skewed_chunk(hot, rounds))
                cluster.process_available()
                cluster.tick(1.0)
                rounds += 1
            assert leader.rebalancer.plans_total >= 1
            # The tick that executed the plan left a replay pending; all
            # records were committed before it, so the suffix is empty.
            seed = cluster.seed
            assert seed.replay_pending
            assert seed.replay_if_needed() == 0
            assert not seed.replay_pending
        finally:
            cluster.shutdown()

    def test_pending_forecast_survives_migration(self):
        """A twin whose pooled forecast request is in flight when its
        shard drains away re-pools on the new owner (the exported
        ``pending_forecast`` marker): after a cluster-wide flush the
        migrated twin holds a forecast. A dropped marker would leave
        ``latest_forecast`` None forever — no further fixes arrive."""
        # linger 0: the pool flushes only explicitly or at batch max, so
        # requests are guaranteed to still be in flight at drain time.
        # Ingest manually (``process_available`` ends with a cluster-wide
        # forecast flush, which would resolve them).
        cluster = LoopbackCluster(
            num_nodes=2,
            forecaster_factory=seeded_svrf_forecaster,
            config=PlatformConfig(forecast_linger_s=0.0),
        )
        try:
            mmsi = mmsis_owned_by(cluster, "node-01", 1)[0]
            min_history = cluster.seed.wiring.forecaster.min_history
            fixes = [
                AISMessage(
                    mmsi=mmsi, t=1.0 + j * 60.0, lat=44.0, lon=8.0 + j * 1e-4, sog=1.0, cog=90.0
                )
                for j in range(min_history)
            ]
            cluster.seed.publish_messages(fixes)
            while cluster.seed.ingestion.poll_once() or cluster.seed.ingestion.lag:
                cluster.settle()
            cluster.settle()
            host, actor = vessel_actor(cluster, mmsi)
            assert host.node.node_id == "node-01"
            assert actor.pending_forecast, "precondition: the forecast request must still be pooled"
            assert actor.latest_forecast is None
            service = cluster.platforms[0].wiring.forecast_service
            pooled_before = service.requests_pooled

            cluster.drain("node-01")
            host, migrated = vessel_actor(cluster, mmsi)
            assert host.node.node_id == "node-00"
            assert migrated.kept_fixes == min_history
            # The exported marker re-issued the request into the new
            # owner's pool on restore.
            assert service.requests_pooled > pooled_before
            cluster.flush_writers()  # flushes forecast pools + writers
            assert migrated.latest_forecast is not None
            assert not migrated.pending_forecast
        finally:
            cluster.shutdown()


class TestScaleInOut:
    @pytest.fixture(scope="class")
    def scenario(self):
        return proximity_scenario(
            n_event_pairs=3, n_near_miss_pairs=1, n_background=2, duration_s=1_800.0
        )

    def test_drain_retires_node_without_losing_outputs(self, scenario):
        """Graceful scale-in: the drained node's vessels migrate out with
        state, and its durably written events are absorbed by the seed —
        the cluster-wide event count is exactly preserved."""
        cluster = LoopbackCluster(num_nodes=3)
        try:
            messages = sorted(scenario.result.messages, key=lambda m: m.t)
            cluster.seed.publish_messages(messages)
            cluster.process_available()
            cluster.flush_writers()
            vessels_before = cluster.total_vessels
            events_before = (cluster.event_count("proximity"), cluster.event_count("collision"))
            assert events_before[0] > 0

            retired = cluster.drain("node-02")
            assert retired == "node-02"
            assert len(cluster.nodes) == 2
            assert cluster.seed.node.membership.alive_ids() == ["node-00", "node-01"]
            assert cluster.total_vessels == vessels_before
            assert "node-02" not in cluster.vessel_distribution()
            assert (
                cluster.event_count("proximity"), cluster.event_count("collision")
            ) == events_before
        finally:
            cluster.shutdown()

    def test_drain_refuses_the_seed(self):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            with pytest.raises(ValueError, match="seed"):
                cluster.drain("node-00")
            with pytest.raises(ValueError, match="unknown"):
                cluster.drain("node-07")
        finally:
            cluster.shutdown()

    def test_add_node_scales_out_live(self, scenario):
        """A node added mid-stream takes shards (with state transfer for
        already-hosted vessels) and the fleet stays intact."""
        cluster = LoopbackCluster(num_nodes=2)
        try:
            messages = sorted(scenario.result.messages, key=lambda m: m.t)
            half = len(messages) // 2
            cluster.seed.publish_messages(messages[:half])
            cluster.process_available()
            vessels_before = cluster.total_vessels

            platform = cluster.add_node()
            assert platform.node.node_id == "node-02"
            assert len(cluster.nodes) == 3
            table = cluster.nodes[0].table
            assert table.shards_of("node-02")
            assert cluster.total_vessels == vessels_before

            cluster.seed.publish_messages(messages[half:])
            cluster.process_available()
            dist = cluster.vessel_distribution()
            assert sum(dist.values()) == scenario.n_vessels
        finally:
            cluster.shutdown()
