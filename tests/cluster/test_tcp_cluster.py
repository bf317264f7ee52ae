"""Two cluster nodes over real TCP sockets.

Each node is a ``Platform`` that ``build_node`` starts on a ``TcpTransport``. The test
thread drives a node the way a TCP deployment does (``launcher.pump_until``: ``pump`` +
``tick`` in a loop), and a remote reply is awaited by pumping until its future is done.
Reader and writer threads only move bytes. The first test keeps both nodes in the test
process; the second joins a worker process (``python -m repro.platform.launcher``).
"""

import threading

from repro.ais.datasets import proximity_scenario
from repro.cluster import TcpTransport
from repro.platform import Platform
from repro.platform.launcher import (
    PROCESS_CLUSTER,
    ask,
    build_node,
    pump_until,
    settle,
    spawn_worker,
)


def recording_thread(on_frame, threads):
    """``on_frame`` that also records which thread called it."""

    def wrapped(frame):
        threads.add(threading.get_ident())
        on_frame(frame)

    return wrapped


def settle_local(nodes):
    """Pump until a round moves nothing and every frame sent has arrived."""

    def idle():
        moved = sum(node.pump() for node in nodes)
        return not moved and sum(n.frames_in for n in nodes) == sum(n.frames_out for n in nodes)

    pump_until(nodes, idle, timeout_s=10.0)


def vessel_rows(platforms, mmsis):
    """Each vessel's KV row from whichever node hosts it, minus the flags."""
    rows = {}
    for platform in platforms:
        for mmsi in mmsis:
            row = platform.kvstore.hgetall(f"vessel:{mmsi}")
            if row:
                assert mmsi not in rows, f"{mmsi} has a row on both nodes"
                rows[mmsi] = {k: v for k, v in row.items() if k != "event_flags"}
    return rows


def encounters(platforms) -> set:
    """``(kind, pair, bucket)`` of every encounter record on any node."""
    debounce = platforms[0].config.event_debounce_s
    found = set()
    for platform in platforms:
        for event in platform.kvstore.lrange("events:proximity", 0, -1):
            found.add(("proximity", event.pair, int(event.t // debounce)))
        for event in platform.kvstore.lrange("events:collision", 0, -1):
            found.add(("collision", event.pair, int(event.forecast_at // debounce)))
    return found


def standalone_run():
    """The Aegean scenario of ``examples/cluster_over_tcp.py``, in time order, and a
    standalone platform that has processed it in the same 500-message chunks."""
    scenario = proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )
    messages = sorted(scenario.result.messages, key=lambda m: m.t)
    alone = Platform()
    for i in range(0, len(messages), 500):
        alone.publish_messages(messages[i : i + 500])
        alone.process_available()
    return scenario, messages, alone


def test_two_tcp_nodes_match_a_standalone_platform():
    scenario, messages, alone = standalone_run()
    mmsis = sorted({m.mmsi for m in messages})

    seed = build_node("node-00", TcpTransport(), cluster_config=PROCESS_CLUSTER)
    contact = (seed.node.node_id, seed.node.transport.address)
    worker = build_node("node-01", TcpTransport(), cluster_config=PROCESS_CLUSTER, join=contact)
    platforms = [seed, worker]
    nodes = [platform.node for platform in platforms]
    frame_threads = set()
    for node in nodes:
        # Wrapped before the first pump: every frame either node receives passes here.
        node.transport._on_frame = recording_thread(node.transport._on_frame, frame_threads)
    try:
        pump_until(nodes, lambda: all(len(n.membership.alive_ids()) == 2 for n in nodes), 10.0)
        settle_local(nodes)
        published = dispatched = 0
        for i in range(0, len(messages), 500):
            published += seed.publish_messages(messages[i : i + 500])
            dispatched += seed.ingest_available(lambda: settle_local(nodes))
        for stage in range(len(seed.wiring.batch_stages)):
            seed.flush_stage(stage)
            reply = nodes[0].ask_control(nodes[1].node_id, "flush_stage", {"stage": stage})
            pump_until(nodes, lambda: reply.done, timeout_s=10.0)
            settle_local(nodes)

        assert dispatched == published == len(messages)
        assert seed.vessel_count and worker.vessel_count
        rows = vessel_rows(platforms, mmsis)
        assert len(rows) == scenario.n_vessels
        assert rows == vessel_rows([alone], mmsis)
        assert encounters(platforms) == encounters([alone]) != set()
        # Only the pumping thread ever reached a node's frame handler.
        assert frame_threads == {threading.get_ident()}
    finally:
        for platform in platforms + [alone]:
            platform.shutdown()


def test_a_launcher_process_joins_a_seed_and_matches_a_standalone_platform():
    scenario, messages, alone = standalone_run()
    seed = build_node("node-00", TcpTransport(), cluster_config=PROCESS_CLUSTER)
    node = seed.node
    process = spawn_worker("node-01", seed)
    try:
        pump_until([node], lambda: "node-01" in node.membership.alive_ids())
        for i in range(0, len(messages), 500):
            seed.publish_messages(messages[i : i + 500])
            seed.ingest_available(node.pump)
            node.tick()
        remote = settle(seed, "node-01")

        assert seed.vessel_count and remote["vessels_local"]
        assert seed.vessel_count + remote["vessels_local"] == scenario.n_vessels == 14
        for kind, count in (("proximity", 6), ("collision", 12)):
            assert seed.event_count(kind) + remote[f"events_{kind}"] == alone.event_count(kind)
            assert alone.event_count(kind) == count

        assert ask(node, "node-01", "shutdown") == {"ok": 1}
        assert process.wait(timeout=30.0) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        seed.shutdown()
        alone.shutdown()
