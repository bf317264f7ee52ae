"""Checkpointed crash recovery over the loopback cluster.

The acceptance story: a checkpointed restart must recover a killed node
while replaying strictly fewer records than ``replay_from_start``, and the
recovered cluster must agree with an uninterrupted run of the same stream.
"""

import dataclasses

import pytest

from repro.ais.datasets import proximity_scenario
from repro.kvstore import CorruptPersistenceError
from repro.platform import LoopbackCluster, PlatformConfig
from repro.platform.checkpoint import (
    capture_checkpoint,
    load_checkpoint,
    write_checkpoint,
)


@pytest.fixture(scope="module")
def scenario():
    return proximity_scenario(n_event_pairs=4, n_near_miss_pairs=2,
                              n_background=2, duration_s=3_600.0, seed=11)


def drive_batched(cluster, messages, chunk=500):
    for i in range(0, len(messages), chunk):
        cluster.seed.publish_messages(messages[i:i + chunk])
        cluster.process_available()


def run_with_recovery(scenario, workdir=None):
    """First half -> checkpoint -> a bit more -> kill -> recover ->
    second half. Returns (cluster, replayed, checkpoint)."""
    cluster = LoopbackCluster(num_nodes=2,
                              config=PlatformConfig(record_telemetry=True))
    messages = sorted(scenario.result.messages, key=lambda m: m.t)
    third = len(messages) // 3
    drive_batched(cluster, messages[:third])
    checkpoint = cluster.checkpoint(directory=workdir)
    drive_batched(cluster, messages[third:2 * third])

    cluster.kill(1)
    config = cluster.cluster_config
    cluster.tick(config.suspect_after_s + 0.1)
    cluster.tick(config.down_after_s)

    if workdir is not None:
        checkpoint = load_checkpoint(workdir)
    _, replayed = cluster.recover("node-01", checkpoint)
    drive_batched(cluster, messages[2 * third:])
    cluster.flush_writers()
    return cluster, replayed, checkpoint


def reference_run(scenario):
    """The fault-free oracle: same stream, no crash."""
    cluster = LoopbackCluster(num_nodes=2)
    messages = sorted(scenario.result.messages, key=lambda m: m.t)
    drive_batched(cluster, messages)
    cluster.flush_writers()
    return cluster


def event_set(cluster, kind):
    """Cluster-wide set of event pairs for ``kind`` — the same parity
    semantics as the sim layer's ``check_event_parity`` (replay may
    re-detect an encounter one fix later, so times are not compared)."""
    out = set()
    for platform in cluster.platforms:
        for payload in platform.kvstore.lrange(f"events:{kind}", 0, -1):
            out.add(tuple(payload.pair))
    return out


class TestCheckpointCapture:
    def test_checkpoint_contents(self, scenario, tmp_path):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            messages = sorted(scenario.result.messages, key=lambda m: m.t)
            drive_batched(cluster, messages[:len(messages) // 2])
            checkpoint = cluster.checkpoint(directory=str(tmp_path))
            assert checkpoint.total_entities > 0
            assert sum(checkpoint.offsets.values()) > 0
            assert {n.node_id for n in checkpoint.nodes} == {
                "node-00", "node-01"}
            # Round-trips through disk.
            loaded = load_checkpoint(str(tmp_path))
            assert loaded.offsets == checkpoint.offsets
            assert loaded.total_entities == checkpoint.total_entities
            assert loaded.stream_time == checkpoint.stream_time
        finally:
            cluster.shutdown()

    def test_non_seed_first_rejected(self, scenario):
        cluster = LoopbackCluster(num_nodes=2)
        try:
            with pytest.raises(ValueError):
                capture_checkpoint(list(reversed(cluster.platforms)))
        finally:
            cluster.shutdown()

    def test_parent_format_checkpoint_raises(self, tmp_path):
        """A format-1 checkpoint (its KV snapshots carry an ``expiry``
        map) is refused before anything is restored."""
        cluster = LoopbackCluster(num_nodes=1)
        try:
            checkpoint = dataclasses.replace(cluster.checkpoint(), version=1)
            write_checkpoint(checkpoint, str(tmp_path))
            with pytest.raises(CorruptPersistenceError):
                load_checkpoint(str(tmp_path))
        finally:
            cluster.shutdown()

    def test_write_requires_no_existing_dir(self, tmp_path):
        cluster = LoopbackCluster(num_nodes=1)
        try:
            checkpoint = cluster.checkpoint()
            path = write_checkpoint(checkpoint,
                                    str(tmp_path / "deep" / "dir"))
            assert load_checkpoint(str(tmp_path / "deep" / "dir")).offsets \
                == checkpoint.offsets
            assert path.endswith("checkpoint.pkl")
        finally:
            cluster.shutdown()


class TestCheckpointedRecovery:
    def test_recovery_matches_uninterrupted_run(self, scenario, tmp_path):
        recovered, replayed, _ = run_with_recovery(scenario,
                                                   workdir=str(tmp_path))
        reference = reference_run(scenario)
        try:
            assert recovered.total_vessels == scenario.n_vessels
            for kind in ("proximity", "collision"):
                assert event_set(recovered, kind) == \
                    event_set(reference, kind), kind
        finally:
            recovered.shutdown()
            reference.shutdown()

    def test_replays_strictly_less_than_full_replay(self, scenario):
        cluster, replayed, checkpoint = run_with_recovery(scenario)
        try:
            total_records = sum(
                cluster.seed.broker.end_offset(
                    cluster.seed.config.ais_topic, p)
                for p in range(cluster.seed.config.ais_partitions))
            # The suffix replay skipped everything the checkpoint covered.
            covered = sum(checkpoint.offsets.values())
            assert covered > 0
            assert replayed < total_records
            full = cluster.seed.replay_from_start()
            cluster.settle()
            assert replayed < full
        finally:
            cluster.shutdown()

    def test_recovery_telemetry_recorded(self, scenario):
        cluster, replayed, _ = run_with_recovery(scenario)
        try:
            snap = cluster.seed.telemetry.registry.snapshot()
            assert snap["counters"]["recoveries_total"] == 1
            assert snap["gauges"]["recovery_replayed_records"] == replayed
            assert "recovery_duration_seconds" in snap["gauges"]
            assert snap["gauges"]["recovery_entities_restored"] > 0
            # Writer batching telemetry flows on the same registry.
            flushes = [k for k in snap["counters"]
                       if k.startswith("writer_flushes_total")]
            assert flushes
        finally:
            cluster.shutdown()

    def test_restored_vessel_state_survives(self, scenario):
        """A vessel hosted by the killed node keeps its KV state after
        recovery even if no further messages arrive for it."""
        cluster = LoopbackCluster(num_nodes=2)
        try:
            messages = sorted(scenario.result.messages, key=lambda m: m.t)
            drive_batched(cluster, messages[:len(messages) // 2])
            checkpoint = cluster.checkpoint()
            victim = cluster.platforms[1]
            victim_keys = [key for key in victim.kvstore.snapshot_state()["data"]
                           if key.startswith("vessel:")]
            assert victim_keys  # the victim hosted someone
            cluster.kill(1)
            config = cluster.cluster_config
            cluster.tick(config.suspect_after_s + 0.1)
            cluster.tick(config.down_after_s)
            platform, _ = cluster.recover("node-01", checkpoint)
            for key in victim_keys:
                assert platform.kvstore.hgetall(key), key
        finally:
            cluster.shutdown()
