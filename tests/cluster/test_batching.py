"""Batching-transport semantics and the fast-path wire codec.

Covers the contract the cross-node pipeline rests on: linger/flush
boundaries, max-batch splitting, per-peer order preservation, loopback
determinism (same events with and without batching), and byte-exact codec
round trips for every hot message type against the pickle path.
"""

import pickle

import pytest

from repro.ais.datasets import proximity_scenario
from repro.ais.message import AISMessage, NavigationStatus
from repro.cluster import (
    BatchingTransport,
    ClusterConfig,
    LoopbackHub,
    TcpTransport,
    codec,
)
from repro.cluster.protocol import (
    Heartbeat,
    Join,
    ShardTableUpdate,
    WireEnvelope,
)
from repro.geo.track import Position
from repro.models.base import RouteForecast
from repro.platform import LoopbackCluster
from repro.platform.messages import (
    CellObservation,
    ForecastShared,
    PositionIngested,
)
from tests.cluster.test_transport import Sink


class SubclassedPosition(PositionIngested):
    """A hot-type subclass; must never take the fixed fast-path layout."""


def batched_loopback_pair(hub=None, **kwargs):
    hub = hub or LoopbackHub()
    ta = BatchingTransport(hub.transport("a"), **kwargs)
    tb = BatchingTransport(hub.transport("b"), **kwargs)
    return hub, ta, tb


class TestBatchingSemantics:
    def test_frames_wait_for_flush(self):
        hub, ta, tb = batched_loopback_pair(max_batch_msgs=100)
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        ta.send("b", b"one")
        ta.send("b", b"two")
        assert hub.pending == 0          # buffered, not yet on the wire
        assert ta.buffered_frames == 2
        hub.pump()                       # pump flushes synchronously first
        assert got == [b"one", b"two"]
        assert ta.buffered_frames == 0

    def test_explicit_flush_then_pump(self):
        hub, ta, tb = batched_loopback_pair(max_batch_msgs=100)
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        ta.send("b", b"x")
        flushed = ta.flush()
        assert flushed == 1
        assert hub.pending == 1          # now a wire frame, pre-delivery
        hub.pump()
        assert got == [b"x"]

    def test_single_frame_goes_unwrapped(self):
        hub, ta, tb = batched_loopback_pair()
        raw = []
        ta.start(lambda f: None)
        # Peek at the wire by starting the *inner* transport's callback
        # through the batching unwrapper while recording the raw frame.
        tb.inner.start(raw.append)
        ta.send("b", b"solo")
        ta.flush()
        hub.pump()
        assert raw == [b"solo"]          # no batch container for one frame

    def test_max_batch_msgs_splits(self):
        hub, ta, tb = batched_loopback_pair(max_batch_msgs=10)
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        frames = [f"f{i}".encode() for i in range(25)]
        for f in frames:
            ta.send("b", f)
        # two full batches auto-flushed; 5 still lingering
        assert ta.batches_sent == 2
        assert ta.frames_batched == 20
        assert ta.buffered_frames == 5
        hub.pump()
        assert got == frames
        assert ta.batches_sent == 3

    def test_max_batch_bytes_splits(self):
        hub, ta, tb = batched_loopback_pair(max_batch_bytes=1_000,
                                            max_batch_msgs=10_000)
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        frames = [bytes([i % 256]) * 400 for i in range(6)]
        for f in frames:
            ta.send("b", f)   # every 3rd frame crosses 1000 bytes
        assert ta.batches_sent == 2
        hub.pump()
        assert got == frames

    def test_order_preserved_per_peer_across_batches(self):
        hub, ta, tb = batched_loopback_pair(max_batch_msgs=7)
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        frames = [str(i).encode() for i in range(100)]
        for i, f in enumerate(frames):
            ta.send("b", f)
            if i % 13 == 0:
                ta.flush()               # interleave explicit flushes
        hub.pump()
        assert got == frames

    def test_independent_peer_buffers(self):
        hub = LoopbackHub()
        ta = BatchingTransport(hub.transport("a"), max_batch_msgs=100)
        got_b, got_c = [], []
        ta.start(lambda f: None)
        BatchingTransport(hub.transport("b")).start(got_b.append)
        BatchingTransport(hub.transport("c")).start(got_c.append)
        for i in range(5):
            ta.send("b", f"b{i}".encode())
            ta.send("c", f"c{i}".encode())
        hub.pump()
        assert got_b == [f"b{i}".encode() for i in range(5)]
        assert got_c == [f"c{i}".encode() for i in range(5)]

    def test_flush_to_dead_peer_drops_not_raises(self):
        hub, ta, tb = batched_loopback_pair()
        ta.start(lambda f: None)
        tb.start(lambda f: None)
        ta.send("b", b"x")
        hub.disconnect("b")
        assert ta.flush() == 0           # absorbed: redelivery window
        assert ta.frames_dropped == 1

    def test_stats_merge_inner(self):
        hub, ta, tb = batched_loopback_pair()
        ta.start(lambda f: None)
        tb.start(lambda f: None)
        ta.send("b", b"x")
        ta.send("b", b"y")
        ta.flush()
        stats = ta.stats()
        assert stats["batches_sent"] == 1
        assert stats["frames_batched"] == 2
        assert stats["batched_bytes"] > 0
        assert stats["buffered_frames"] == 0


class TestBatchingOverTcp:
    def test_round_trip_with_linger_flusher(self):
        ta = BatchingTransport(TcpTransport(port=0), linger_ms=1.0,
                               max_batch_msgs=32)
        tb = BatchingTransport(TcpTransport(port=0), linger_ms=1.0)
        try:
            ta.start(lambda f: None)
            sink = Sink(tb)
            ta.add_peer("b", tb.address)
            frames = [f"frame-{i:04d}".encode() for i in range(300)]
            for f in frames:
                ta.send("b", f)
            assert sink.wait_for(300, timeout=15.0) == frames
            assert ta.batches_sent >= 1
            assert ta.frames_batched == 300
        finally:
            ta.close()
            tb.close()

    def test_batched_sender_plain_receiver(self):
        """A batched sender needs a batch-aware receiver; unwrapping sits
        in BatchingTransport, so wrap the receive side even when its own
        sends should not batch (max_batch_msgs=1 keeps them immediate)."""
        ta = BatchingTransport(TcpTransport(port=0), linger_ms=1.0)
        tb = BatchingTransport(TcpTransport(port=0), max_batch_msgs=1)
        try:
            ta.start(lambda f: None)
            sink = Sink(tb)
            ta.add_peer("b", tb.address)
            for i in range(10):
                ta.send("b", str(i).encode())
            ta.flush()
            assert sink.wait_for(10, timeout=15.0) == [str(i).encode() for i in range(10)]
        finally:
            ta.close()
            tb.close()


@pytest.fixture(scope="module")
def scenario():
    return proximity_scenario(n_event_pairs=3, n_near_miss_pairs=1,
                              n_background=2, duration_s=1_800.0)


def run_cluster(scenario, cluster_config):
    cluster = LoopbackCluster(num_nodes=2, cluster_config=cluster_config)
    try:
        ordered = sorted(scenario.result.messages, key=lambda m: m.t)
        for i in range(0, len(ordered), 500):
            cluster.seed.publish_messages(ordered[i:i + 500])
            cluster.process_available()
        return (cluster.vessel_distribution(),
                cluster.event_count("proximity"),
                cluster.event_count("collision"))
    finally:
        cluster.shutdown()


class TestLoopbackDeterminism:
    def test_batched_run_matches_unbatched(self, scenario):
        """The scalability knob must not change results: identical vessel
        placement and event counts with and without transport batching."""
        plain = run_cluster(scenario, ClusterConfig())
        batched = run_cluster(scenario,
                              ClusterConfig(transport_batching=True,
                                            max_batch_msgs=64))
        assert batched == plain
        assert plain[1] > 0              # scenario actually produced events

    def test_batched_cluster_uses_batches(self, scenario):
        cluster = LoopbackCluster(
            num_nodes=2,
            cluster_config=ClusterConfig(transport_batching=True))
        try:
            ordered = sorted(scenario.result.messages, key=lambda m: m.t)
            cluster.seed.publish_messages(ordered)
            cluster.process_available()
            stats = cluster.nodes[0].stats()["transport"]
            assert stats["batches_sent"] > 0
            assert stats["frames_batched"] > stats["batches_sent"]
        finally:
            cluster.shutdown()


HOT_ENVELOPES = [
    WireEnvelope(kind="sharded", src="node-00", entity="vessel",
                 key=239000001,
                 message=PositionIngested(AISMessage(
                     mmsi=239000001, t=1_234.5, lat=37.95, lon=23.55,
                     sog=11.5, cog=271.0))),
    WireEnvelope(kind="sharded", src="node-01", entity="vessel", key=7,
                 message=PositionIngested(AISMessage(
                     mmsi=7, t=0.0, lat=-37.95, lon=-123.0, sog=0.0,
                     cog=359.9, heading=42,
                     status=NavigationStatus.FISHING,
                     source="satellite"))),
    WireEnvelope(kind="sharded", src="node-00", entity="cell",
                 key=613561124432, sender_node="node-00",
                 sender_name="vessel-7",
                 message=CellObservation(cell=613561124432, mmsi=7,
                                         t=99.0, lat=37.9, lon=23.5)),
    WireEnvelope(kind="sharded", src="node-01", entity="collision",
                 key=613561124432,
                 message=ForecastShared(
                     cell=613561124432,
                     forecast=RouteForecast(mmsi=7, positions=(
                         Position(t=0.0, lat=37.9, lon=23.5, sog=10.0,
                                  cog=90.0),
                         Position(t=300.0, lat=37.91, lon=23.52,
                                  sog=None, cog=None),
                         Position(t=600.0, lat=37.92, lon=23.54,
                                  sog=9.5, cog=None))))),
    # Cell ids with the top bit set (H3-style indexes above 2**63 are
    # routine at the collision-cell resolution) must stay on the fast path.
    WireEnvelope(kind="sharded", src="node-00", entity="cell",
                 key=9799833001222216045,
                 message=CellObservation(cell=9799833001222216045, mmsi=7,
                                         t=99.0, lat=40.4, lon=24.8)),
    WireEnvelope(kind="sharded", src="node-00", entity="collision",
                 key=9799833001222216045,
                 message=ForecastShared(
                     cell=9799833001222216045,
                     forecast=RouteForecast(mmsi=7, positions=(
                         Position(t=0.0, lat=40.4, lon=24.8, sog=12.0,
                                  cog=344.0),)))),
    WireEnvelope(kind="control", src="node-01",
                 message=Heartbeat("node-01")),
]

FALLBACK_ENVELOPES = [
    WireEnvelope(kind="control", src="node-01",
                 message=Join("node-02", ("127.0.0.1", 4242))),
    WireEnvelope(kind="control", src="node-00",
                 message=ShardTableUpdate(5, ("node-00", "node-01"))),
    WireEnvelope(kind="ask", src="node-00", target="writer", corr_id=12,
                 message={"op": "stats"}),
    WireEnvelope(kind="reply", src="node-01", corr_id=12,
                 message=[1, 2.5, "three", None]),
    WireEnvelope(kind="sharded", src="node-00", entity="vessel",
                 key=("tuple", "key"), message="payload", hops=2),
]


class TestCodecFastPath:
    @pytest.mark.parametrize("env", HOT_ENVELOPES + FALLBACK_ENVELOPES)
    def test_round_trip_equals_pickle_path(self, env):
        frame = codec.encode(env)
        assert codec.decode(frame) == env
        # ...and the restricted-pickle reference path agrees exactly.
        assert codec.decode(pickle.dumps(
            env, protocol=pickle.HIGHEST_PROTOCOL)) == env

    @pytest.mark.parametrize("env", HOT_ENVELOPES)
    def test_hot_types_avoid_pickle_entirely(self, env):
        frame = codec.encode(env)
        assert frame[0] == codec.TAG_ENV
        assert b"\x80" + bytes([pickle.HIGHEST_PROTOCOL]) not in frame
        # Fast-path frames are much smaller than their pickle forms.
        assert len(frame) < len(pickle.dumps(
            env, protocol=pickle.HIGHEST_PROTOCOL))

    def test_counters_track_encoding(self):
        codec.reset_counters()
        frame = codec.encode(HOT_ENVELOPES[0])
        assert codec.frames_encoded == 1
        assert codec.fast_path_frames == 1
        assert codec.encoded_size == len(frame)
        codec.encode(FALLBACK_ENVELOPES[0])
        assert codec.frames_encoded == 2
        assert codec.pickle_fallbacks == 1   # payload fell back, not frame
        counters = codec.counters()
        assert counters["frames_encoded"] == 2

    def test_envelope_subclass_payload_falls_back(self):
        """A subclass of a hot type may carry extra state, so it must be
        pickled by reference, never squeezed into the fixed layout — and
        its (untrusted) module is then rejected on decode."""
        env = WireEnvelope(kind="sharded", src="n", entity="vessel", key=1,
                           message=SubclassedPosition(AISMessage(
                               mmsi=1, t=0.0, lat=0.0, lon=0.0, sog=0.0,
                               cog=0.0)))
        frame = codec.encode(env)
        assert b"SubclassedPosition" in frame   # pickled by reference
        with pytest.raises(codec.WireDecodeError):
            codec.decode(frame)                 # tests.* is not trusted

    def test_fallback_payload_is_still_restricted(self):
        """An attacker-controlled pickle inside a fast-path envelope must
        go through the restricted unpickler like any whole-frame pickle."""
        import os
        import struct as _struct

        evil = pickle.dumps(os.system)
        # A None payload makes the payload tag the frame's last byte;
        # splice an evil pickle payload in its place.
        frame = codec.encode(WireEnvelope(kind="reply", src="n", corr_id=1,
                                          message=None))
        frame = frame[:-1] + b"\x01" + _struct.pack(">I", len(evil)) + evil
        with pytest.raises(codec.WireDecodeError):
            codec.decode(frame)

    def test_batch_container_round_trip(self):
        frames = [codec.encode(e)
                  for e in HOT_ENVELOPES + FALLBACK_ENVELOPES]
        blob = codec.encode_batch(frames)
        assert codec.is_batch(blob)
        assert codec.decode_batch(blob) == frames
        assert [codec.decode(f) for f in codec.decode_batch(blob)] \
            == HOT_ENVELOPES + FALLBACK_ENVELOPES

    def test_batch_rejects_garbage(self):
        with pytest.raises(codec.WireDecodeError):
            codec.decode_batch(b"\x01not-a-batch")
        blob = codec.encode_batch([b"abc"])
        with pytest.raises(codec.WireDecodeError):
            codec.decode_batch(blob[:-1])       # truncated
        with pytest.raises(codec.WireDecodeError):
            codec.decode(blob)                  # batches must be split

    def test_non_envelope_objects_still_pickle(self):
        hb = Heartbeat("node-07")
        frame = codec.encode(hb)
        assert frame[0] == 0x80                 # plain (restricted) pickle
        assert codec.decode(frame) == hb
