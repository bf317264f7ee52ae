"""Two cluster nodes over real TCP sockets, inside the test process.

Each node is a ``Platform`` on ``BatchingTransport(TcpTransport(port=0))``.
The test thread drives both the way a TCP deployment drives one node:
``pump`` + ``tick`` in a loop, and a remote reply is awaited by pumping
until its future is done. Reader and writer threads only move bytes.
"""

import threading
import time

from repro.ais.datasets import proximity_scenario
from repro.cluster import BatchingTransport, ClusterConfig, ClusterNode, TcpTransport
from repro.platform import Platform

#: Generous failure-detector timeouts: a loaded box must not down a peer.
CONFIG = ClusterConfig(heartbeat_interval_s=0.5, suspect_after_s=5.0, down_after_s=15.0)


def pump_until(nodes, done, timeout_s=10.0):
    """Pump and tick every node on this thread until ``done()``."""
    deadline = time.monotonic() + timeout_s
    while not done():
        assert time.monotonic() < deadline, "the TCP cluster stalled"
        for node in nodes:
            node.pump(0.001)
            node.tick()


def recording_thread(on_frame, threads):
    """``on_frame`` that also records which thread called it."""

    def wrapped(frame):
        threads.add(threading.get_ident())
        on_frame(frame)

    return wrapped


def settle(nodes):
    """Pump until a round moves nothing and every frame sent has arrived."""

    def idle():
        moved = sum(node.pump() for node in nodes)
        return not moved and sum(n.frames_in for n in nodes) == sum(n.frames_out for n in nodes)

    pump_until(nodes, idle)


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


def test_two_tcp_nodes_match_a_standalone_platform():
    scenario = proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )
    messages = sorted(scenario.result.messages, key=lambda m: m.t)
    mmsis = sorted({m.mmsi for m in messages})
    alone = Platform()
    for i in range(0, len(messages), 500):
        alone.publish_messages(messages[i : i + 500])
        alone.process_available()

    nodes = [
        ClusterNode(f"node-0{i}", BatchingTransport(TcpTransport(port=0)), config=CONFIG)
        for i in range(2)
    ]
    seed, worker = platforms = [
        Platform(node=nodes[0], is_seed=True),
        Platform(node=nodes[1], is_seed=False),
    ]
    frame_threads = set()
    for node in nodes:
        node._on_frame = recording_thread(node._on_frame, frame_threads)
        node.start()
    try:
        nodes[1].join(nodes[0].node_id, nodes[0].transport.address)
        pump_until(nodes, lambda: all(len(n.membership.alive_ids()) == 2 for n in nodes))
        settle(nodes)
        published = dispatched = 0
        for i in range(0, len(messages), 500):
            published += seed.publish_messages(messages[i : i + 500])
            dispatched += seed.ingest_available(lambda: settle(nodes))
        for stage in range(len(seed.wiring.batch_stages)):
            seed.flush_stage(stage)
            reply = nodes[0].ask_control(nodes[1].node_id, "flush_stage", {"stage": stage})
            pump_until(nodes, lambda: reply.done)
            settle(nodes)

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
