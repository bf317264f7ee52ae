"""Tests for the cluster node over the deterministic loopback transport:
join protocol, control asks, shard routing, handoff, buffered redelivery,
rejection of undecodable frames.

No sleeps anywhere — time is a virtual clock and frames move only when the
hub is pumped."""

import pickle
import socket
from dataclasses import replace

import pytest

from repro.actors import Actor
from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    LoopbackHub,
    ShardTable,
    codec,
    run_cluster_until_idle,
)
from repro.cluster.protocol import Heartbeat, WireEnvelope
from tests.cluster.test_batching import mislabelled_frames

CONFIG = ClusterConfig(
    heartbeat_interval_s=0.5, suspect_after_s=2.0, down_after_s=5.0, num_shards=64
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Counter(Actor):
    def __init__(self):
        self.values = []

    def receive(self, message, ctx):
        if message == "get":
            ctx.reply(list(self.values))
        else:
            self.values.append(message)


def make_cluster(n=2, config=CONFIG):
    hub = LoopbackHub()
    clock = Clock()
    nodes = []
    for i in range(n):
        node_id = f"n{i + 1}"
        node = ClusterNode(node_id, hub.transport(node_id), config=config, clock=clock)
        node.start()
        nodes.append(node)
    routers = [node.register_entity("counter", lambda key: Counter()) for node in nodes]
    for node in nodes[1:]:
        node.join("n1", nodes[0].transport.address)
    run_cluster_until_idle(nodes, hub)
    return hub, clock, nodes, routers


def settle(nodes, hub):
    return run_cluster_until_idle(nodes, hub)


def kill(node, hub):
    """Abrupt crash: frames dropped, peers must detect it by silence."""
    hub.disconnect(node.node_id)
    node._closed = True


def tick_all(nodes, hub, clock, dt):
    clock.now += dt
    for node in nodes:
        if not node._closed:
            node.tick()
    settle([n for n in nodes if not n._closed], hub)


class TestJoin:
    def test_two_nodes_agree_on_membership_and_table(self):
        hub, clock, (a, b), _ = make_cluster()
        assert a.membership.alive_ids() == ["n1", "n2"]
        assert b.membership.alive_ids() == ["n1", "n2"]
        assert a.table.epoch == b.table.epoch
        assert a.table.assignment == b.table.assignment
        assert set(a.table.assignment.values()) == {"n1", "n2"}
        assert b.joined.is_set()

    def test_third_node_learns_full_membership(self):
        hub, clock, nodes, _ = make_cluster(3)
        for node in nodes:
            assert node.membership.alive_ids() == ["n1", "n2", "n3"]
            assert node.table.assignment == nodes[0].table.assignment

    def test_leader_is_lowest_node(self):
        _, _, (a, b), _ = make_cluster()
        assert a.coordinator.is_active
        assert not b.coordinator.is_active


class TestShardedRouting:
    def test_message_reaches_owner_wherever_it_is(self):
        hub, clock, nodes, routers = make_cluster()
        for key in range(40):
            routers[0].tell(key, f"m{key}")
        settle(nodes, hub)
        local = [len(r) for r in routers]
        assert sum(local) == 40  # every key spawned exactly once
        assert all(c > 0 for c in local)  # and both nodes host a share
        for key in range(40):
            owner_idx = 0 if routers[0].is_local(key) else 1
            ref = routers[owner_idx].route(key)
            fut = ref.ask("get")
            settle(nodes, hub)
            assert fut.result(timeout=0) == [f"m{key}"]

    def test_routing_agrees_between_nodes(self):
        _, _, _, routers = make_cluster()
        for key in range(100):
            assert routers[0].owner_of(key) == routers[1].owner_of(key)

    def test_unknown_entity_dead_letters(self):
        """An entry for an entity the receiver never registered is
        dead-lettered there, not forwarded."""
        hub, clock, (a, b), routers = make_cluster()
        ghost = a.register_entity("ghost", lambda key: Counter())
        remote_key = next(k for k in range(100) if ghost.owner_of(k) == "n2")
        a.send_sharded("ghost", remote_key, "boo")
        settle([a, b], hub)
        assert b.system.dead_letter_count == 1
        assert a.forwarded == b.forwarded == 0

    def test_an_unregistered_entity_dead_letters_where_it_is(self):
        """A node has no shard rule for an entity it never registered: it
        dead-letters the message itself and sends nothing."""
        hub, clock, (a, b), routers = make_cluster()
        frames = a.frames_out
        a.send_sharded("ghost", 1, "boo")
        assert a.system.dead_letter_count == 1
        assert a.frames_out == frames
        settle([a, b], hub)
        assert b.system.dead_letter_count == 0

    def test_stale_table_is_forwarded_not_lost(self):
        hub, clock, nodes, routers = make_cluster(3)
        a, b, c = nodes
        fresh = a.table
        # Regress node a to a 2-node table; pick a key it will mis-route.
        a.table = ShardTable(fresh.epoch, ("n1", "n2"), CONFIG.num_shards)
        key = next(
            k
            for k in range(1000)
            if fresh.assignment[routers[0].shard_of(k)] == "n3"
            and a.table.assignment[routers[0].shard_of(k)] == "n2"
        )
        routers[0].tell(key, "hop")
        settle(nodes, hub)
        assert b.forwarded == 1
        assert key in routers[2]
        a.table = fresh


class TestRemoteAsk:
    def test_control_ask(self):
        hub, clock, (a, b), _ = make_cluster()
        b.register_control("sum", lambda params: sum(params["xs"]))
        future = a.ask_control("n2", "sum", {"xs": [1, 2, 3]})
        settle([a, b], hub)
        assert future.result(timeout=0) == 6

    def test_unknown_control_op_reports_error(self):
        hub, clock, (a, b), _ = make_cluster()
        future = a.ask_control("n2", "nope")
        settle([a, b], hub)
        assert "error" in future.result(timeout=0)

    def test_ask_without_control_request_gets_error_reply(self):
        """Only a malformed peer asks with another payload; the answer is
        the error dict, so its future still completes."""
        hub, clock, (a, b), _ = make_cluster()
        future = a.ask_control("n2", "sum")
        # Rewrite the queued ask frame as a peer that sends a bare payload.
        ask = codec.decode(hub._transports["n2"]._inbox.pop())
        forged = WireEnvelope(kind="ask", src="n1", corr_id=ask.corr_id, message={"op": "sum"})
        hub._transports["n2"]._inbox.append(codec.encode(forged))
        settle([a, b], hub)
        assert "error" in future.result(timeout=0)


class TestFailureAndHandoff:
    def test_kill_reassigns_shards_and_redelivers(self):
        hub, clock, nodes, routers = make_cluster()
        a, b = nodes
        for key in range(30):
            routers[0].tell(key, "before")
        settle(nodes, hub)
        survivors_before = set(routers[0].known_keys())

        kill(b, hub)
        # Sends to the dead node buffer instead of vanishing.
        lost_keys = [k for k in range(30) if not routers[0].is_local(k)]
        for key in lost_keys:
            routers[0].tell(key, "after")
        assert a.pending_count == len(lost_keys)

        # Silence -> SUSPECT (no reshuffle yet) -> DOWN (reshuffle).
        tick_all(nodes, hub, clock, 2.5)
        assert a.membership.get("n2").state.value == "suspect"
        epoch_before = a.table.epoch
        tick_all(nodes, hub, clock, 3.0)
        assert a.membership.alive_ids() == ["n1"]
        assert a.table.epoch > epoch_before
        assert set(a.table.assignment.values()) == {"n1"}

        # Buffered messages were flushed to the new owner: every key now
        # lives on n1 and the post-kill message arrived.
        assert a.pending_count == 0
        settle([a], hub)
        assert set(routers[0].known_keys()) == set(range(30))
        for key in lost_keys:
            fut = routers[0].route(key).ask("get")
            a.system.run_until_idle()
            # "before" died with n2 (the documented in-flight window);
            # "after" was buffered and must be there.
            assert fut.result(timeout=0) == ["after"]
        for key in survivors_before:
            fut = routers[0].route(key).ask("get")
            a.system.run_until_idle()
            assert "before" in fut.result(timeout=0)

    def test_graceful_leave_hands_off_immediately(self):
        hub, clock, nodes, routers = make_cluster()
        a, b = nodes
        for key in range(20):
            routers[0].tell(key, "x")
        settle(nodes, hub)
        b.leave()
        settle(nodes, hub)
        assert a.membership.alive_ids() == ["n1"]
        assert set(a.table.assignment.values()) == {"n1"}
        # New traffic for previously-remote keys is now local to n1.
        for key in range(20):
            routers[0].tell(key, "y")
        settle(nodes, hub)
        assert set(routers[0].known_keys()) == set(range(20))

    def test_handoff_on_join_reroutes_undelivered_mail(self):
        """Mail still queued in a departing actor's mailbox at handoff time
        must follow the shard to its new owner."""
        hub = LoopbackHub()
        clock = Clock()
        a = ClusterNode("n1", hub.transport("n1"), config=CONFIG, clock=clock)
        a.start()
        router_a = a.register_entity("counter", lambda key: Counter())
        for key in range(30):
            router_a.tell(key, "solo")
        # Deliberately NOT dispatched: the envelopes sit in mailboxes when
        # the newcomer's join triggers the handoff.
        b = ClusterNode("n2", hub.transport("n2"), config=CONFIG, clock=clock)
        b.start()
        router_b = b.register_entity("counter", lambda key: Counter())
        b.join("n1", a.transport.address)
        run_cluster_until_idle([a, b], hub)

        moved = set(router_b.known_keys())
        assert moved  # the newcomer took over part of the keyspace
        assert set(router_a.known_keys()) | moved == set(range(30))
        assert not set(router_a.known_keys()) & moved
        for key in sorted(moved):
            fut = router_b.route(key).ask("get")
            run_cluster_until_idle([a, b], hub)
            assert fut.result(timeout=0) == ["solo"]  # mail not lost

    def test_processed_state_respawns_lazily_after_join(self):
        """Keys whose actors had already drained their mail are simply
        released on handoff; the next message spawns them on the new
        owner."""
        hub = LoopbackHub()
        clock = Clock()
        a = ClusterNode("n1", hub.transport("n1"), config=CONFIG, clock=clock)
        a.start()
        router_a = a.register_entity("counter", lambda key: Counter())
        for key in range(30):
            router_a.tell(key, "solo")
        a.system.run_until_idle()
        assert len(router_a) == 30

        b = ClusterNode("n2", hub.transport("n2"), config=CONFIG, clock=clock)
        b.start()
        router_b = b.register_entity("counter", lambda key: Counter())
        b.join("n1", a.transport.address)
        run_cluster_until_idle([a, b], hub)

        released = set(range(30)) - set(router_a.known_keys())
        assert released
        assert not set(router_b.known_keys())  # nothing spawned yet
        for key in range(30):
            router_a.tell(key, "joined")
        run_cluster_until_idle([a, b], hub)
        assert set(router_b.known_keys()) == released
        for key in sorted(released):
            fut = router_b.route(key).ask("get")
            run_cluster_until_idle([a, b], hub)
            assert fut.result(timeout=0) == ["joined"]

    def test_suspect_alone_does_not_reshuffle(self):
        hub, clock, nodes, routers = make_cluster()
        a, b = nodes
        epoch = a.table.epoch
        kill(b, hub)
        tick_all(nodes, hub, clock, 2.5)  # suspect only
        assert a.table.epoch == epoch
        assert set(a.table.assignment.values()) == {"n1", "n2"}


class TestUndecodableFrames:
    @pytest.mark.parametrize("batching", [False, True])
    def test_bad_frame_is_rejected_and_the_pump_goes_on(self, batching):
        """A frame naming an untrusted class (or a malformed batch
        container) is counted and dropped; the frame queued behind it in
        the same pump is still delivered."""
        hub, clock, (a, b), _ = make_cluster(config=replace(CONFIG, transport_batching=batching))
        if batching:
            bad = bytes([codec.TAG_BATCH]) + (5).to_bytes(4, "big")
        else:
            bad = pickle.dumps(socket.socket)
        frames_in = a.frames_in
        clock.now = 42.0
        beat = codec.encode(WireEnvelope(kind="control", src="n2", message=Heartbeat("n2")))
        hub._enqueue("n1", bad)
        hub._enqueue("n1", beat)
        hub.pump()
        assert a.frames_rejected == 1
        assert a.stats()["frames_rejected"] == 1
        assert a.frames_in == frames_in + 1
        assert a.membership.get("n2").last_heartbeat == 42.0

    def test_a_mislabelled_sharded_frame_is_rejected_and_the_pump_goes_on(self):
        """A ``"sharded"`` frame without a ``ShardedBatch``, and a
        ``ShardedBatch`` under another kind, are counted and dropped; the
        frame queued behind them is still delivered."""
        hub, clock, (a, b), _ = make_cluster()
        frames_in = a.frames_in
        clock.now = 42.0
        beat = codec.encode(WireEnvelope(kind="control", src="n2", message=Heartbeat("n2")))
        for frame in [*mislabelled_frames("n2"), beat]:
            hub._enqueue("n1", frame)
        hub.pump()
        assert a.frames_rejected == 2
        assert a.frames_in == frames_in + 1
        assert a.membership.get("n2").last_heartbeat == 42.0
        assert a.system.dead_letter_count == 0


class TestStats:
    def test_stats_shape(self):
        hub, clock, (a, b), routers = make_cluster()
        routers[0].tell(1, "x")
        settle([a, b], hub)
        stats = a.stats()
        for field in (
            "node_id",
            "epoch",
            "alive",
            "leader",
            "frames_in",
            "frames_out",
            "pending",
            "messages_processed",
            "counter_local",
        ):
            assert field in stats
        assert stats["alive"] == ["n1", "n2"]
        assert stats["leader"] == "n1"


class TestShardDigests:
    def test_one_shard_digest_per_key_per_node(self, monkeypatch):
        """Both ends of a sharded frame find its shard through the
        entity router's memo: a stream whose keys all recur (the same
        tracks an hour later) sends frames but hashes no key again."""
        from repro.ais.datasets import proximity_scenario
        from repro.cluster import sharding
        from repro.platform import LoopbackCluster
        from repro.streams import broker

        calls = []
        real = sharding.stable_hash

        def counted(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(sharding, "stable_hash", counted)
        # The broker's partition memo is its own; keep it off the count.
        monkeypatch.setattr(broker, "_stable_hash", real)
        scenario = proximity_scenario(
            n_event_pairs=2, n_near_miss_pairs=1, n_background=2, duration_s=1_800.0
        )
        first = sorted(scenario.result.messages, key=lambda m: m.t)
        shift = first[-1].t - first[0].t + 3_600.0
        again = [replace(m, t=m.t + shift) for m in first]
        cluster = LoopbackCluster(num_nodes=2)
        try:
            seen = []
            for stream in (first, again):
                for i in range(0, len(stream), 500):
                    cluster.seed.publish_messages(stream[i : i + 500])
                    cluster.process_available()
                seen.append((len(calls), sum(node.frames_out for node in cluster.nodes)))
        finally:
            cluster.shutdown()
        (hashes, frames), (hashes_again, frames_again) = seen
        assert frames_again > frames > 0
        assert hashes_again == hashes
