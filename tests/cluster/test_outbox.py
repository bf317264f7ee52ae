"""The per-peer outbox: one frame per peer per burst of work.

While a :meth:`ClusterNode.outbox` scope is open, the sharded messages a
node routes to a peer queue in send order and leave as one
``ShardedBatch`` frame when the scope closes. The invariants under test:

* every link carries exactly the message sequence unbatched sends would,
  whatever the interleaving of scoped and unscoped sends and of frames
  that bypass the outbox (control frames);
* a peer's list splits every ``max_batch_msgs`` entries;
* a refused frame is buffered entry by entry, and no scope spans a pump;
* a forecast share whose cells moved in flight re-routes grouped by owner;
* a fault-free 4-node run writes the stores the unbatched code wrote.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import Counter, defaultdict

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.actors import Actor
from repro.ais.datasets import proximity_scenario
from repro.cluster import ClusterConfig, ClusterNode, LoopbackHub, codec, run_cluster_until_idle
from repro.cluster.protocol import Heartbeat, ShardedBatch
from repro.platform import LoopbackCluster
from repro.platform.messages import ForecastSharedBatch
from repro.telemetry.trace import clear_current_trace, set_current_trace
from tests.forecasts import make_forecast

CONFIG = ClusterConfig(num_shards=64)


class CapturingHub(LoopbackHub):
    """Records, per ``(src, dest)`` link, every frame and the messages
    they carry (a batch flattened into its entries)."""

    def __init__(self) -> None:
        super().__init__()
        self.frames: dict[tuple, list] = defaultdict(list)
        self.links: dict[tuple, list] = defaultdict(list)

    def _enqueue(self, dest: str, frame: bytes, src: str | None = None) -> None:
        for sub in codec.decode_batch(frame) if codec.is_batch(frame) else [frame]:
            env = codec.decode(sub)
            self.frames[(src, dest)].append(env)
            if env.kind == "sharded":
                for entity, key, message, _, trace_id in env.message.entries:
                    self.links[(src, dest)].append(("sharded", entity, key, message, trace_id))
            else:
                self.links[(src, dest)].append((env.kind, None, None, env.message, None))
        super()._enqueue(dest, frame, src)

    def clear(self) -> None:
        self.frames.clear()
        self.links.clear()


class Recorder(Actor):
    def __init__(self, key, log):
        self.key = key
        self.log = log

    def receive(self, message, ctx):
        self.log.append((self.key, message))


class CellTable:
    """A stand-in local collision table: records each cell it is shared."""

    def __init__(self):
        self.shared: list[tuple[int, int]] = []

    def share_forecast(self, cells, forecast):
        self.shared += [(cell, forecast.mmsi) for cell in cells]

    def known_keys(self):
        return []

    def __len__(self):
        return 0


def make_cluster(n=3, config=CONFIG):
    hub = CapturingHub()
    log: list = []
    nodes = []
    for i in range(n):
        node = ClusterNode(f"n{i + 1}", hub.transport(f"n{i + 1}"), config=config)
        node.start()
        node.register_entity("rec", lambda key: Recorder(key, log))
        nodes.append(node)
    for node in nodes[1:]:
        node.join("n1", nodes[0].transport.address)
    run_cluster_until_idle(nodes, hub)
    hub.clear()
    return hub, nodes, log


def keys_owned_by(node: ClusterNode, owner: str, entity: str = "rec", count: int = 10) -> list:
    router = node.router(entity)
    return [key for key in range(10_000) if router.owner_of(key) == owner][:count]


#: One step of a burst: a tell to a key, or a control frame to a peer.
steps = st.one_of(
    st.tuples(st.just("tell"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("control"), st.sampled_from(["n2", "n3"])),
)
#: Segments run inside a scope (nested twice) or outside any.
segments = st.lists(st.tuples(st.booleans(), st.lists(steps, max_size=12)), max_size=6)


def run_segments(plan, scoped: bool):
    hub, nodes, log = make_cluster()
    sender = nodes[0]
    router = sender.router("rec")
    sent = []
    for in_scope, burst in plan:

        def play(burst=burst):
            for op, arg in burst:
                if op == "tell":
                    sent.append((arg, len(sent)))
                    router.tell(arg, len(sent) - 1)
                else:
                    sender.send_control(arg, Heartbeat(sender.node_id))

        if in_scope and scoped:
            with sender.outbox(), sender.outbox():
                play()
        else:
            play()
    run_cluster_until_idle(nodes, hub)
    return dict(hub.links), log, sent


class TestOrder:
    @settings(max_examples=40, deadline=None)
    @given(plan=segments)
    def test_each_link_carries_the_unbatched_sequence(self, plan):
        """Scoped or not, with control frames in the middle, each peer
        receives every message once and each link the same sequence."""
        links, log, sent = run_segments(plan, scoped=True)
        reference, _, _ = run_segments(plan, scoped=False)
        assert links == reference
        assert Counter(log) == Counter(sent)

    def test_a_control_frame_ships_the_queue_first(self):
        hub, nodes, _ = make_cluster()
        sender = nodes[0]
        key = keys_owned_by(sender, "n2", count=1)[0]
        with sender.outbox():
            sender.router("rec").tell(key, "before")
            sender.send_control("n2", Heartbeat("n1"))
            sender.router("rec").tell(key, "after")
        kinds = [(kind, message) for kind, _, _, message, _ in hub.links[("n1", "n2")]]
        assert kinds == [
            ("sharded", "before"),
            ("control", Heartbeat("n1")),
            ("sharded", "after"),
        ]


class TestFrames:
    def test_one_frame_per_peer_per_scope(self):
        hub, nodes, log = make_cluster()
        sender = nodes[0]
        keys = keys_owned_by(sender, "n2", count=5) + keys_owned_by(sender, "n3", count=5)
        before = sender.frames_out
        with sender.outbox():
            for key in keys:
                sender.router("rec").tell(key, key)
        assert sender.frames_out - before == 2
        for peer in ("n2", "n3"):
            (frame,) = hub.frames[("n1", peer)]
            assert len(frame.message.entries) == 5
        run_cluster_until_idle(nodes, hub)
        assert sorted(log) == sorted((key, key) for key in keys)

    @pytest.mark.parametrize("count, sizes", [(10, [4, 4, 2]), (9, [4, 4, 1]), (1, [1])])
    def test_a_peer_list_splits_at_the_entry_bound(self, count, sizes):
        """``max_batch_msgs`` entries to a frame; a lone entry travels as
        a one-entry batch."""
        hub, nodes, log = make_cluster(config=ClusterConfig(num_shards=64, max_batch_msgs=4))
        sender = nodes[0]
        keys = keys_owned_by(sender, "n2", count=count)
        with sender.outbox():
            for key in keys:
                sender.router("rec").tell(key, key)
        frames = hub.frames[("n1", "n2")]
        assert all(type(env.message) is ShardedBatch for env in frames)
        assert [len(env.message.entries) for env in frames] == sizes
        assert [key for _, _, key, _, _ in hub.links[("n1", "n2")]] == keys
        run_cluster_until_idle(nodes, hub)
        assert sorted(log) == sorted((key, key) for key in keys)

    def test_entries_keep_their_own_trace_ids(self):
        hub, nodes, _ = make_cluster()
        sender = nodes[0]
        keys = keys_owned_by(sender, "n2", count=3)
        with sender.outbox():
            for trace, key in zip((None, 7, 8), keys):
                if trace is not None:
                    set_current_trace(trace)
                try:
                    sender.router("rec").tell(key, key)
                finally:
                    clear_current_trace()
        assert [trace for *_, trace in hub.links[("n1", "n2")]] == [None, 7, 8]

    def test_a_refused_frame_is_buffered_under_each_entry_shard(self):
        hub, nodes, _ = make_cluster()
        sender = nodes[0]
        keys = keys_owned_by(sender, "n2", count=6)
        hub.disconnect("n2")  # n2 still looks UP: the send itself fails
        with sender.outbox():
            for key in keys:
                sender.router("rec").tell(key, key)
        router = sender.router("rec")
        assert sender.pending_count == len(keys)
        assert {shard: len(envs) for shard, envs in sender._pending.items()} == Counter(
            router.shard_of(key) for key in keys
        )

    def test_no_scope_spans_a_pump(self):
        hub, nodes, _ = make_cluster()
        sender = nodes[0]
        key = keys_owned_by(sender, "n2", count=1)[0]
        with sender.outbox():
            sender.router("rec").tell(key, 1)
            with pytest.raises(AssertionError, match="spans a hub pump"):
                hub.pump()

    def test_only_the_owning_thread_queues(self):
        """Only the thread that opened a scope queues into it."""
        hub, nodes, _ = make_cluster()
        sender = nodes[0]
        key = keys_owned_by(sender, "n2", count=1)[0]
        with sender.outbox():
            worker = threading.Thread(target=sender.router("rec").tell, args=(key, "other"))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert [message for *_, message, _ in hub.links[("n1", "n2")]] == ["other"]


class TestMovedCells:
    def test_cells_that_moved_in_flight_leave_as_one_entry(self):
        """A share whose cells all moved to one node leaves as one entry,
        and each cell lands exactly once on its current owner."""
        hub = CapturingHub()
        tables = {}
        nodes = []
        for i in range(3):
            node_id = f"n{i + 1}"
            node = ClusterNode(node_id, hub.transport(node_id), config=CONFIG)
            node.start()
            tables[node_id] = CellTable()
            node.register_entity("collision", None, local_router=tables[node_id])
            nodes.append(node)
        for node in nodes[1:]:
            node.join("n1", nodes[0].transport.address)
        run_cluster_until_idle(nodes, hub)
        hub.clear()
        router = nodes[1].router("collision")
        key = keys_owned_by(nodes[1], "n2", entity="collision", count=1)[0]
        moved = keys_owned_by(nodes[1], "n3", entity="collision", count=6)
        forecast = make_forecast(7, [(0.0, 1.0, 2.0)])
        router.deliver_local(key, ForecastSharedBatch(cells=tuple(moved), forecast=forecast))
        (entry,) = hub.links[("n2", "n3")]
        assert entry[3].cells == tuple(moved)
        run_cluster_until_idle(nodes, hub)
        assert tables["n3"].shared == [(cell, 7) for cell in moved]
        assert tables["n1"].shared == tables["n2"].shared == []


def store_digest(dumps) -> str:
    def canonical(value):
        if isinstance(value, dict):
            return ("d", sorted((repr(canonical(k)), canonical(v)) for k, v in value.items()))
        if isinstance(value, (set, frozenset)):
            return ("s", sorted(repr(canonical(v)) for v in value))
        if isinstance(value, (list, tuple)):
            return (type(value).__name__, [canonical(v) for v in value])
        return value

    return hashlib.sha256(repr(canonical(dumps)).encode()).hexdigest()


@functools.cache
def fault_free_run(transport_batching: bool) -> tuple[list[dict], Counter, Counter]:
    """Each node's ``KeyValueStore.snapshot_state`` after a fault-free 4-node run of
    the Aegean proximity scenario (one run per transport per session), with
    the message types of the sharded entries sent outside any outbox scope
    and of the entries shipped from one."""
    scenario = proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )
    cluster = LoopbackCluster(
        num_nodes=4, cluster_config=ClusterConfig(transport_batching=transport_batching)
    )
    unscoped, shipped = Counter(), Counter()
    for node in cluster.nodes:

        def send(node_id, env, send=node._send):
            if env.kind == "sharded":
                unscoped.update(type(entry[2]).__name__ for entry in env.message.entries)
            return send(node_id, env)

        def ship(peer, entries, ship=node._ship):
            shipped.update(type(entry[2]).__name__ for entry in entries)
            return ship(peer, entries)

        node._send, node._ship = send, ship
    try:
        messages = sorted(scenario.result.messages, key=lambda m: m.t)
        for i in range(0, len(messages), 500):
            cluster.seed.publish_messages(messages[i : i + 500])
            cluster.process_available()
        assert cluster.event_count("collision") == 12 and cluster.event_count("proximity") == 6
        dumps = [platform.kvstore.snapshot_state() for platform in cluster.platforms]
        return dumps, unscoped, shipped
    finally:
        cluster.shutdown()


def fault_free_dumps(transport_batching: bool) -> list[dict]:
    return fault_free_run(transport_batching)[0]


#: ``store_digest`` of the run below. First recorded before the outbox
#: existed (every frame one envelope). Re-recorded when cell-keyed entities
#: began sharding by block: proximity and collision cells moved node, so a
#: pair's hits reach its owner in another order and another hit wins the
#: bucket (event payloads, ``event_flags`` strings, ``events:all`` scores);
#: record counts and encounter identities held. Re-recorded when the store
#: snapshot lost its always-empty ``expiry`` map: this is the digest of the
#: ``data`` part of the stores recorded before. Re-recorded when the writer
#: began storing a forecast's positions as ``float`` rather than
#: ``np.float64``: the digest reprs each value, and the stores recorded before,
#: with their numpy scalars read as floats, digest to this one.
UNBATCHED_DIGEST = "0ea8f83e15983d11bff3204fae0a47a80da96f4ae4cfd022c21f340b62523656"


@pytest.mark.parametrize("transport_batching", [False, True])
def test_a_fault_free_cluster_writes_the_stores_it_always_wrote(transport_batching):
    """Batching never changes what a node writes: the batched transport
    leaves the stores the unbatched one does, and both are the stores
    recorded before."""
    dumps = fault_free_dumps(transport_batching)
    if transport_batching:
        for node, (plain, coalesced) in enumerate(zip(fault_free_dumps(False), dumps)):
            differing = sorted(
                key
                for key in plain["data"].keys() | coalesced["data"].keys()
                if plain["data"].get(key) != coalesced["data"].get(key)
            )
            assert not differing, f"batching changed node {node}'s keys {differing}"
    assert store_digest(dumps) == UNBATCHED_DIGEST


def test_a_received_frame_ships_its_alerts_in_one_frame_per_peer():
    """Applying a received frame is one burst of work: the hits a cell
    table raises meanwhile leave from the frame's outbox scope, never as
    frames of their own."""
    _, unscoped, shipped = fault_free_run(True)
    assert unscoped["CollisionAlert"] == unscoped["ProximityAlert"] == 0
    assert shipped["CollisionAlert"] > 0 and shipped["ProximityAlert"] > 0
