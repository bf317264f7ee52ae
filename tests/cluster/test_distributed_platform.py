"""End-to-end tests for the sharded platform over the loopback cluster:
vessel distribution, cross-node event detection, node loss + stream replay.

Deterministic throughout — the cluster runs on one virtual clock and an
explicitly pumped hub."""

import pytest

from repro.ais.datasets import proximity_scenario, scalability_fleet_config
from repro.ais.fleet import FleetEngine
from repro.platform import LoopbackCluster, Platform


@pytest.fixture(scope="module")
def scenario():
    return proximity_scenario(n_event_pairs=4, n_near_miss_pairs=2,
                              n_background=2, duration_s=3_600.0)


def drive(cluster, messages):
    for msg in sorted(messages, key=lambda m: m.t):
        cluster.seed.publish_messages([msg])
        cluster.process_available()


def drive_batched(cluster, messages, chunk=500):
    ordered = sorted(messages, key=lambda m: m.t)
    for i in range(0, len(ordered), chunk):
        cluster.seed.publish_messages(ordered[i:i + chunk])
        cluster.process_available()


class TestSharding:
    def test_vessels_spread_over_nodes(self, scenario):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            drive_batched(cluster, scenario.result.messages)
            dist = cluster.vessel_distribution()
            assert sum(dist.values()) == scenario.n_vessels
            assert all(count > 0 for count in dist.values())
        finally:
            cluster.shutdown()

    def test_single_node_cluster_matches_vessel_count(self, scenario):
        cluster = LoopbackCluster(num_nodes=1)
        try:
            drive_batched(cluster, scenario.result.messages)
            assert cluster.total_vessels == scenario.n_vessels
        finally:
            cluster.shutdown()

    def test_events_detected_across_node_boundary(self, scenario):
        """Converging vessel pairs whose actors live on *different* nodes
        must still produce proximity events — the cell actor does the
        pairing wherever it is hosted."""
        cluster = LoopbackCluster(num_nodes=2)
        try:
            drive_batched(cluster, scenario.result.messages)
            assert cluster.event_count("proximity") > 0
            router = cluster.seed.wiring.vessel_router
            owners = {m: router.owner_of(m)
                      for m in {msg.mmsi for msg in scenario.result.messages}}
            split_pairs = [e for e in scenario.events
                           if owners[e.mmsi_a] != owners[e.mmsi_b]]
            assert split_pairs  # the interesting case actually occurred
        finally:
            cluster.shutdown()

    def test_deterministic_across_runs(self, scenario):
        results = []
        for _ in range(2):
            cluster = LoopbackCluster(num_nodes=2)
            try:
                drive_batched(cluster, scenario.result.messages)
                results.append((cluster.vessel_distribution(),
                                cluster.event_count("proximity"),
                                cluster.event_count("collision")))
            finally:
                cluster.shutdown()
        assert results[0] == results[1]


class TestNodeLossRecovery:
    def test_kill_then_replay_recovers_all_vessels(self, scenario):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            messages = sorted(scenario.result.messages, key=lambda m: m.t)
            half = len(messages) // 2
            drive_batched(cluster, messages[:half])
            victim_vessels = cluster.platforms[1].vessel_count
            assert victim_vessels > 0

            cluster.kill(1)
            config = cluster.cluster_config
            cluster.tick(config.suspect_after_s + 0.1)
            cluster.tick(config.down_after_s)
            seed = cluster.seed
            assert seed.node.membership.alive_ids() == ["node-00"]
            assert seed.replay_pending

            drive_batched(cluster, messages[half:])
            # Every vessel exists again, hosted by the survivor.
            assert cluster.total_vessels == scenario.n_vessels
            assert cluster.vessel_distribution() == {
                "node-00": scenario.n_vessels}
            assert not seed.replay_pending
        finally:
            cluster.shutdown()

    def test_replay_rebuilds_vessels_fed_by_nmea_sentences(self, scenario):
        """Raw NMEA records replay through the ingestion decode path like
        every other record kind: after the worker dies, every vessel has a
        current state row on the survivor."""
        cluster = LoopbackCluster(num_nodes=2)
        try:
            messages = sorted(scenario.result.messages, key=lambda m: m.t)
            sentences = Platform.to_nmea(messages)
            for i in range(0, len(sentences), 500):
                cluster.seed.publish_nmea(sentences[i:i + 500])
                cluster.process_available()
            assert cluster.platforms[1].vessel_count > 0

            cluster.kill(1)
            cluster.tick(cluster.cluster_config.down_after_s + 1.0)
            assert cluster.seed.replay_pending
            cluster.process_available()

            seed = cluster.seed
            assert seed.vessel_count == scenario.n_vessels
            last_fix = {}
            for msg in messages:
                last_fix[msg.mmsi] = msg.t
            for mmsi, t in last_fix.items():
                state = seed.api.vessel_state(mmsi)
                assert state is not None, mmsi
                assert state["t"] >= t - seed.config.downsample_s
        finally:
            cluster.shutdown()

    def test_seed_cannot_be_killed(self):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            with pytest.raises(ValueError):
                cluster.kill(0)
        finally:
            cluster.shutdown()


class TestMetricsAndStats:
    def test_stats_roll_up(self, scenario):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            drive_batched(cluster, scenario.result.messages[:400])
            for stats in cluster.stats():
                assert stats["alive"] == ["node-00", "node-01"]
                assert stats["vessels_local"] >= 0
                assert "states_written" in stats
        finally:
            cluster.shutdown()

    def test_control_plane_stats_match_local(self, scenario):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            drive_batched(cluster, scenario.result.messages[:400])
            seed = cluster.seed
            future = seed.node.ask_control("node-01", "platform_stats")
            cluster.settle()
            remote = future.result(timeout=0)
            assert remote["vessels_local"] == \
                cluster.platforms[1].vessel_count
        finally:
            cluster.shutdown()


class TestScaledStream:
    def test_fleet_stream_end_to_end(self):
        cluster = LoopbackCluster(num_nodes=3)
        try:
            engine = FleetEngine(scalability_fleet_config(
                n_vessels=60, duration_s=300.0, seed=3))
            total = 0
            for batch in engine.stream():
                if len(batch):
                    cluster.seed.publish_batch(batch)
                    total += cluster.process_available()
            assert total > 0
            dist = cluster.vessel_distribution()
            assert sum(dist.values()) == 60
            assert len([c for c in dist.values() if c > 0]) == 3
        finally:
            cluster.shutdown()
