"""Batching-transport semantics and the fast-path wire codec.

Covers the contract the cross-node pipeline rests on: linger/flush
boundaries, max-batch splitting, per-peer order preservation, loopback
determinism (same events with and without batching), and codec round trips
checked against pickle as the oracle — pickle itself never decodes a frame.
"""

import ast
import gc
import pathlib
import pickle
import struct
import weakref

import pytest

from repro.ais.datasets import proximity_scenario
from repro.ais.message import AISMessage, NavigationStatus
from repro.cluster import BatchingTransport, ClusterConfig, LoopbackHub, TcpTransport, codec
from repro.cluster.protocol import (
    ControlRequest,
    Heartbeat,
    Join,
    ShardedBatch,
    ShardTableUpdate,
    WireEnvelope,
)
from repro.platform import LoopbackCluster
from repro.platform.messages import CellObservation, ForecastSharedBatch, PositionIngested
from tests.cluster.test_transport import Sink
from tests.forecasts import comparable, make_forecast


class SubclassedPosition(PositionIngested):
    """A hot-type subclass: not a wire type, so the sender must refuse it."""


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
        assert hub.pending == 0  # buffered, not yet on the wire
        assert ta.buffered_frames == 2
        hub.pump()  # pump flushes synchronously first
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
        assert hub.pending == 1  # now a wire frame, pre-delivery
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
        assert raw == [b"solo"]  # no batch container for one frame

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
        hub, ta, tb = batched_loopback_pair(max_batch_bytes=1_000, max_batch_msgs=10_000)
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        frames = [bytes([i % 256]) * 400 for i in range(6)]
        for f in frames:
            ta.send("b", f)  # every 3rd frame crosses 1000 bytes
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
                ta.flush()  # interleave explicit flushes
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
        assert ta.flush() == 0  # absorbed: redelivery window
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
        ta = BatchingTransport(TcpTransport(port=0), linger_ms=1.0, max_batch_msgs=32)
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
    return proximity_scenario(
        n_event_pairs=3, n_near_miss_pairs=1, n_background=2, duration_s=1_800.0
    )


def run_cluster(scenario, cluster_config):
    cluster = LoopbackCluster(num_nodes=2, cluster_config=cluster_config)
    try:
        ordered = sorted(scenario.result.messages, key=lambda m: m.t)
        for i in range(0, len(ordered), 500):
            cluster.seed.publish_messages(ordered[i : i + 500])
            cluster.process_available()
        return (
            cluster.vessel_distribution(),
            cluster.event_count("proximity"),
            cluster.event_count("collision"),
        )
    finally:
        cluster.shutdown()


class TestLoopbackDeterminism:
    def test_batched_run_matches_unbatched(self, scenario):
        """The scalability knob must not change results: identical vessel
        placement and event counts with and without transport batching."""
        plain = run_cluster(scenario, ClusterConfig())
        batched = run_cluster(scenario, ClusterConfig(transport_batching=True, max_batch_msgs=64))
        assert batched == plain
        assert plain[1] > 0  # scenario actually produced events

    def test_batched_cluster_uses_batches(self, scenario):
        cluster = LoopbackCluster(
            num_nodes=2, cluster_config=ClusterConfig(transport_batching=True)
        )
        try:
            ordered = sorted(scenario.result.messages, key=lambda m: m.t)
            cluster.seed.publish_messages(ordered)
            cluster.process_available()
            stats = cluster.nodes[0].stats()["transport"]
            assert stats["batches_sent"] > 0
            assert stats["frames_batched"] > stats["batches_sent"]
        finally:
            cluster.shutdown()


class TestKilledNodeIsReleased:
    def test_kill_restart_leaves_no_flush_hook_behind(self):
        """``LoopbackHub.disconnect`` drops the node's flush hook: after
        kill -> restart cycles the hub holds one hook per live node, and
        nothing on the hub keeps a killed node reachable."""
        cluster = LoopbackCluster(
            num_nodes=3, cluster_config=ClusterConfig(transport_batching=True)
        )
        try:
            killed = []
            for _ in range(3):
                killed.append(weakref.ref(cluster.nodes[1]))
                node_id = cluster.kill(1)
                cluster.tick(6.0)  # peers declare it DOWN
                cluster.restart(node_id)
            gc.collect()
            assert len(cluster.hub._flushers) == len(cluster.nodes)
            assert [ref() for ref in killed] == [None, None, None]
        finally:
            cluster.shutdown()


def sharded_envelope(src, entity, key, message, hops=0, trace_id=None) -> WireEnvelope:
    """The frame one sharded message leaves in when sent alone: a one-entry
    ``ShardedBatch``."""
    entry = (entity, key, message, hops, trace_id)
    return WireEnvelope(kind="sharded", src=src, message=ShardedBatch(entries=(entry,)))


def mislabelled_frames(src: str = "n") -> list[bytes]:
    """A ``"sharded"`` frame whose message is no ``ShardedBatch``, and a
    ``ShardedBatch`` under the ``"control"`` kind: shapes the encoder
    refuses, forged by rewriting a good frame's kind byte."""
    control = codec.encode(WireEnvelope(kind="control", src=src, message=Heartbeat(src)))
    sharded = codec.encode(sharded_envelope(src, "vessel", 1, "payload"))
    return [
        control[:1] + bytes([codec._KIND_CODES["sharded"]]) + control[2:],
        sharded[:1] + bytes([codec._KIND_CODES["control"]]) + sharded[2:],
    ]


HOT_ENVELOPES = [
    sharded_envelope(
        "node-00",
        "vessel",
        239000001,
        PositionIngested(
            AISMessage(mmsi=239000001, t=1_234.5, lat=37.95, lon=23.55, sog=11.5, cog=271.0)
        ),
    ),
    sharded_envelope(
        "node-01",
        "vessel",
        7,
        PositionIngested(
            AISMessage(
                mmsi=7,
                t=0.0,
                lat=-37.95,
                lon=-123.0,
                sog=0.0,
                cog=359.9,
                heading=42,
                status=NavigationStatus.FISHING,
                source="satellite",
            )
        ),
    ),
    sharded_envelope(
        "node-00",
        "cell",
        613561124432,
        CellObservation(cell=613561124432, mmsi=7, t=99.0, lat=37.9, lon=23.5),
    ),
    sharded_envelope(
        "node-01",
        "collision",
        613561124432,
        ForecastSharedBatch(
            cells=(613561124432,),
            forecast=make_forecast(
                7, [(0.0, 37.9, 23.5), (300.0, 37.91, 23.52), (600.0, 37.92, 23.54)], 10.0, 90.0
            ),
        ),
    ),
    # Cell ids with the top bit set (H3-style indexes above 2**63 are
    # routine at the collision-cell resolution) must stay on the fast path.
    sharded_envelope(
        "node-00",
        "cell",
        9799833001222216045,
        CellObservation(cell=9799833001222216045, mmsi=7, t=99.0, lat=40.4, lon=24.8),
    ),
    sharded_envelope(
        "node-00",
        "collision",
        9799833001222216045,
        ForecastSharedBatch(
            cells=(9799833001222216045,),
            forecast=make_forecast(7, [(0.0, 40.4, 24.8)], sog=12.0, cog=344.0),
        ),
    ),
    WireEnvelope(kind="control", src="node-01", message=Heartbeat("node-01")),
]

#: Envelopes whose payload (or key) takes the closed value encoding.
VALUE_ENVELOPES = [
    WireEnvelope(kind="control", src="node-01", message=Join("node-02", ("127.0.0.1", 4242))),
    WireEnvelope(
        kind="control", src="node-00", message=ShardTableUpdate(5, ("node-00", "node-01"))
    ),
    WireEnvelope(kind="ask", src="node-00", corr_id=12, message=ControlRequest(op="stats")),
    WireEnvelope(kind="reply", src="node-01", corr_id=12, message=[1, 2.5, "three", None]),
    sharded_envelope("node-00", "vessel", ("tuple", "key"), "payload", hops=2),
]

#: A protocol-4 pickle that calls ``os.getcwd()`` through a dotted name
#: under a ``repro.`` module: the shape the old module-prefix allowlist let
#: through. PROTO 4, two SHORT_BINUNICODE, STACK_GLOBAL, EMPTY_TUPLE, REDUCE.
DOTTED_GLOBAL = (
    b"\x80\x04"
    + b"\x8c\x19repro.platform.checkpoint"
    + b"\x8c\x09os.getcwd"
    + b"\x93)R."
)


def spliced_payload(blob: bytes) -> bytes:
    """An envelope frame whose payload is ``blob`` under the retired pickle
    payload tag (0x01, u32 length): a None payload is the frame's last byte."""
    frame = codec.encode(WireEnvelope(kind="reply", src="n", corr_id=1, message=None))
    return frame[:-1] + b"\x01" + struct.pack(">I", len(blob)) + blob


class TestCodecFastPath:
    @pytest.mark.parametrize("env", HOT_ENVELOPES + VALUE_ENVELOPES)
    def test_round_trip_equals_pickle_path(self, env):
        """Pickle is the test's oracle, never the wire: the codec's round
        trip equals pickle's, and a pickled envelope is not a frame."""
        pickled = pickle.dumps(env, protocol=pickle.HIGHEST_PROTOCOL)
        decoded = codec.decode(codec.encode(env))
        assert comparable(decoded) == comparable(pickle.loads(pickled)) == comparable(env)
        with pytest.raises(codec.WireDecodeError):
            codec.decode(pickled)

    @pytest.mark.parametrize("env", HOT_ENVELOPES)
    def test_hot_types_avoid_pickle_entirely(self, env):
        frame = codec.encode(env)
        assert frame[0] == codec.TAG_ENV
        assert b"\x80" + bytes([pickle.HIGHEST_PROTOCOL]) not in frame
        # Struct frames are much smaller than their pickle forms.
        assert len(frame) < len(pickle.dumps(env, protocol=pickle.HIGHEST_PROTOCOL))

    def test_counters_track_encoding(self):
        codec.reset_counters()
        frame = codec.encode(HOT_ENVELOPES[0])
        assert codec.frames_encoded == 1
        assert codec.encoded_size == len(frame)
        codec.encode(VALUE_ENVELOPES[0])
        assert codec.frames_encoded == 2
        counters = codec.counters()
        assert counters["frames_encoded"] == 2
        assert counters["pickle_fallbacks"] == 0

    def test_envelope_subclass_payload_is_refused(self):
        """A subclass of a hot type may carry extra state, so it is neither
        squeezed into the fixed layout nor encoded as its base record: the
        sender gets a TypeError naming it."""
        env = sharded_envelope(
            "n",
            "vessel",
            1,
            SubclassedPosition(AISMessage(mmsi=1, t=0.0, lat=0.0, lon=0.0, sog=0.0, cog=0.0)),
        )
        with pytest.raises(TypeError, match="SubclassedPosition"):
            codec.encode(env)

    def test_fallback_payload_is_still_restricted(self):
        """A pickle spliced into an envelope under the retired pickle
        payload tag is refused like a whole-frame pickle."""
        import os

        with pytest.raises(codec.WireDecodeError):
            codec.decode(spliced_payload(pickle.dumps(os.system)))

    def test_dotted_global_under_a_trusted_module_is_refused(self, monkeypatch):
        """``repro.platform.checkpoint`` + ``os.getcwd`` resolves to
        ``os.getcwd``: a frame naming it, whole or as an envelope payload,
        must be refused without the function ever being called."""
        import os

        calls = []
        monkeypatch.setattr(os, "getcwd", lambda: calls.append("getcwd") or "/")
        for frame in (DOTTED_GLOBAL, spliced_payload(DOTTED_GLOBAL)):
            with pytest.raises(codec.WireDecodeError):
                codec.decode(frame)
        assert calls == []

    def test_batch_container_round_trip(self):
        frames = [codec.encode(e) for e in HOT_ENVELOPES + VALUE_ENVELOPES]
        blob = codec.encode_batch(frames)
        assert codec.is_batch(blob)
        assert codec.decode_batch(blob) == frames
        decoded = [codec.decode(f) for f in codec.decode_batch(blob)]
        assert comparable(decoded) == comparable(HOT_ENVELOPES + VALUE_ENVELOPES)

    def test_batch_rejects_garbage(self):
        with pytest.raises(codec.WireDecodeError):
            codec.decode_batch(b"\x01not-a-batch")
        blob = codec.encode_batch([b"abc"])
        with pytest.raises(codec.WireDecodeError):
            codec.decode_batch(blob[:-1])  # truncated
        with pytest.raises(codec.WireDecodeError):
            codec.decode(blob)  # batches must be split

    def test_a_process_can_decode_before_it_encodes(self, monkeypatch):
        """A seed's first frame is often a peer's ``Join``: decoding binds
        the record vocabulary itself when nothing was encoded yet."""
        frames = [codec.encode(env) for env in VALUE_ENVELOPES]
        for name, unbound in (("_HOT", None), ("_RECORDS", ()), ("_RECORD_CODES", {})):
            monkeypatch.setattr(codec, name, unbound)
        decoded = [codec.decode(frame) for frame in frames]
        assert comparable(decoded) == comparable(VALUE_ENVELOPES)

    def test_non_envelope_objects_are_refused(self):
        with pytest.raises(TypeError, match="Heartbeat"):
            codec.encode(Heartbeat("node-07"))


CLUSTER_SOURCES = sorted(pathlib.Path(codec.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", CLUSTER_SOURCES, ids=[path.stem for path in CLUSTER_SOURCES])
def test_no_cluster_module_imports_pickle(path):
    """The wire is closed: no module of the cluster layer may import
    ``pickle``, so an unpickling fallback cannot quietly return."""
    offenders = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            offenders += [a.name for a in node.names if a.name.split(".")[0] == "pickle"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pickle":
            offenders.append(node.module)
    assert not offenders, f"{path.name}:{offenders}"
