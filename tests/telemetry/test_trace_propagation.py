"""Trace propagation: thread-local context, the TraceLog/merge machinery,
the trace id in a sharded batch entry's head, and a full cross-node trace
over a 2-node loopback cluster."""

from __future__ import annotations

from repro.ais.datasets import proximity_scenario
from repro.cluster import ClusterConfig, codec
from repro.cluster.protocol import ShardedBatch, WireEnvelope
from repro.platform import LoopbackCluster, PlatformConfig
from repro.platform.messages import PositionIngested
from repro.telemetry import (
    TraceLog,
    clear_current_trace,
    complete_traces,
    current_trace,
    is_complete,
    merge_traces,
    set_current_trace,
)


class TestCurrentTrace:
    def test_set_get_clear(self):
        assert current_trace() is None
        set_current_trace(123)
        try:
            assert current_trace() == 123
        finally:
            clear_current_trace()
        assert current_trace() is None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTraceLog:
    def test_hops_merge_and_complete(self):
        clock_a, clock_b = FakeClock(), FakeClock()
        node_a = TraceLog("node-00", clock=clock_a)
        node_b = TraceLog("node-01", clock=clock_b)
        node_a.record(1, "ingest")
        clock_a.now = clock_b.now = 1.0
        node_b.record(1, "vessel", queue_s=0.5, proc_s=0.1)
        clock_b.now = 2.0
        node_b.record(1, "cell")
        merged = merge_traces({"node-00": node_a.snapshot(), "node-01": node_b.snapshot()})
        hops = merged[1]
        assert [h["stage"] for h in hops] == ["ingest", "vessel", "cell"]
        assert is_complete(hops, min_nodes=2)
        assert complete_traces(merged, min_nodes=2) == {1: hops}

    def test_single_node_trace_is_incomplete_across_nodes(self):
        log = TraceLog("node-00", clock=FakeClock())
        log.record(1, "ingest")
        log.record(1, "vessel")
        log.record(1, "cell")
        hops = merge_traces({"node-00": log.snapshot()})[1]
        assert is_complete(hops, min_nodes=1)
        assert not is_complete(hops, min_nodes=2)

    def test_trace_eviction_is_fifo_and_counted(self):
        log = TraceLog("node-00", clock=FakeClock(), max_traces=2)
        for tid in (1, 2, 3):
            log.record(tid, "ingest")
        snap = log.snapshot()
        assert sorted(snap) == ["2", "3"]


def one_entry(message, trace_id=None):
    """A sharded frame of one entry for vessel 17."""
    entry = ("vessel", 17, message, 0, trace_id)
    return WireEnvelope(kind="sharded", src="node-00", message=ShardedBatch(entries=(entry,)))


class TestCodecTraceBit:
    def test_traced_envelope_roundtrips_on_fast_path(self):
        position = PositionIngested(
            message=proximity_scenario(
                n_event_pairs=1, n_near_miss_pairs=0, n_background=0, duration_s=60.0
            ).result.messages[0]
        )
        env = one_entry(position, trace_id=(1 << 48) | 42)
        frame = codec.encode(env)
        decoded = codec.decode(frame)
        assert decoded == env
        assert decoded.message.entries[0][4] == (1 << 48) | 42
        # The payload keeps its fixed PositionIngested layout (tag 0x10).
        assert frame[len(codec.encode(one_entry(None, trace_id=(1 << 48) | 42))) - 1] == 0x10

    def test_trace_bit_costs_exactly_eight_bytes(self):
        """A traced entry costs its untraced bytes plus the 8-byte id in
        the entry head."""
        plain_frame = codec.encode(one_entry(None))
        traced_frame = codec.encode(one_entry(None, trace_id=7))
        assert len(traced_frame) == len(plain_frame) + 8
        assert codec.decode(plain_frame).message.entries[0][4] is None
        assert codec.decode(traced_frame).message.entries[0][4] == 7


class TestCrossNodeTrace:
    def test_two_node_loopback_produces_complete_traces(self):
        scenario = proximity_scenario(
            n_event_pairs=2, n_near_miss_pairs=1, n_background=2, duration_s=1800.0
        )
        cluster = LoopbackCluster(
            num_nodes=2,
            config=PlatformConfig(record_telemetry=True, trace_sample_every=1),
            cluster_config=ClusterConfig(transport_batching=True),
        )
        try:
            ordered = sorted(scenario.result.messages, key=lambda m: m.t)
            for i in range(0, len(ordered), 200):
                cluster.seed.publish_messages(ordered[i : i + 200])
                cluster.process_available()
            snapshot = cluster.telemetry_snapshot()
        finally:
            cluster.shutdown()

        complete = snapshot["traces_complete"]
        assert complete, "no complete cross-node trace"
        hops = next(iter(complete.values()))
        assert hops[0]["stage"] == "ingest"
        assert len({h["node"] for h in hops}) >= 2
        times = [h["t"] for h in hops]
        assert times == sorted(times)

        # The batched transport's instruments recorded actual traffic.
        flushes = batch_frames = 0
        for node_snap in snapshot["nodes"].values():
            metrics = node_snap["metrics"]
            for name, value in metrics["counters"].items():
                if name.startswith("transport_flush_total"):
                    flushes += value
            for name, summary in metrics["histograms"].items():
                if name.startswith("transport_batch_frames"):
                    batch_frames += summary["count"]
        assert flushes > 0
        assert batch_frames > 0

    def test_every_off_seed_position_carries_its_trace_across(self):
        """Each sampled position bound for a vessel on the other node has
        hops on both nodes: entries of one frame keep their own trace ids."""
        scenario = proximity_scenario(
            n_event_pairs=2, n_near_miss_pairs=1, n_background=2, duration_s=1800.0
        )
        cluster = LoopbackCluster(
            num_nodes=2,
            config=PlatformConfig(record_telemetry=True, trace_sample_every=1),
            cluster_config=ClusterConfig(transport_batching=True),
        )
        try:
            seed = cluster.seed
            owner_of = seed.node.router("vessel").owner_of
            ordered = sorted(scenario.result.messages, key=lambda m: m.t)
            checked = 0
            # Chunks stay under a node's 256 held traces.
            for i in range(0, len(ordered), 100):
                tids = []
                for msg in ordered[i : i + 100]:
                    partition, offset = seed.producer.send(
                        seed.config.ais_topic, msg.mmsi, msg, msg.t
                    )
                    if owner_of(msg.mmsi) != seed.node.node_id:
                        tids.append(((partition + 1) << 48) | offset)
                cluster.process_available()
                merged = cluster.telemetry_snapshot()["traces_merged"]
                for tid in tids:
                    assert len({h["node"] for h in merged[tid]}) == 2, tid
                checked += len(tids)
        finally:
            cluster.shutdown()
        assert checked > 100
