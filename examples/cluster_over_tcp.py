"""The sharded platform across two OS processes over TCP.

The one deployment shape nothing else exercises: this process is the seed
(broker, ingestion, its share of the actors); a second Python process
joins it over :class:`~repro.cluster.TcpTransport` (seed-node join,
heartbeats, consistent-hash shard table, batched outbound frames) and
hosts the rest. An Aegean proximity scenario streams through the cluster
and the events its cell actors resolve are counted on both nodes. Each
process is one loop on one thread: ``pump`` (deliver what the TCP readers
queued, run the actors to idle) and ``tick`` (heartbeats). Tests and
``bench/`` use the in-process :class:`~repro.platform.LoopbackCluster`;
measured cluster numbers: ``bench/run.py --workload cluster4_svrf``.

Exits non-zero only if the worker owns no vessel, the seed dispatched a
different number of positions than it published, or no proximity event
was resolved.

Run:  python examples/cluster_over_tcp.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.ais.datasets import proximity_scenario  # noqa: E402
from repro.cluster import ClusterConfig, ClusterNode, TcpTransport  # noqa: E402
from repro.platform import Platform  # noqa: E402

#: Generous timeouts — a loaded box must not trip the failure detector.
CONFIG = ClusterConfig(
    heartbeat_interval_s=0.5, suspect_after_s=5.0, down_after_s=15.0, transport_batching=True
)
SEED_ID, WORKER_ID = "node-00", "node-01"


def start_node(node_id: str) -> ClusterNode:
    transport = TcpTransport(
        queue_frames=CONFIG.outbound_queue_frames, block_timeout_s=CONFIG.send_block_timeout_s
    )
    node = ClusterNode(node_id, transport, config=CONFIG)
    node.start()
    return node


def pump_until(node: ClusterNode, done, timeout_s: float = 60.0) -> None:
    """The node loop: pump and tick on this thread until ``done()``."""
    deadline = time.monotonic() + timeout_s
    while not done():
        if time.monotonic() > deadline:
            raise TimeoutError("the cluster did not answer in time")
        node.pump(0.05)
        node.tick()


def ask_worker(node: ClusterNode, op: str, params: dict | None = None):
    """A control ask whose reply arrives while this thread pumps."""
    future = node.ask_control(WORKER_ID, op, params)
    pump_until(node, lambda: future.done)
    return future.result()


def worker_main(seed_host: str, seed_port: int) -> None:
    node = start_node(WORKER_ID)
    platform = Platform(node=node, is_seed=False)
    stopping = []
    node.register_control("shutdown", lambda params: stopping.append(1) or {"ok": 1})
    node.join(SEED_ID, (seed_host, seed_port))
    pump_until(node, node.joined.is_set, timeout_s=30.0)
    print(f"worker: joined the cluster as {WORKER_ID}", flush=True)
    pump_until(node, lambda: stopping, timeout_s=3_600.0)
    platform.shutdown()  # flushes the shutdown reply before closing


def spawn_worker(seed_address) -> subprocess.Popen:
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    search_path = os.pathsep.join([src_dir] + ([inherited] if inherited else []))
    argv = [sys.executable, os.path.abspath(__file__), "--worker", *map(str, seed_address)]
    return subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=search_path))


def settle(platform: Platform, node: ClusterNode) -> dict:
    """The cluster-wide flush barrier over the control channel, one of
    ``wiring.batch_stages`` at a time, then poll both nodes' counters
    until nothing moves. Returns the worker's final ``platform_stats``."""
    for stage in range(len(platform.wiring.batch_stages)):
        platform.flush_stage(stage)
        ask_worker(node, "flush_stage", {"stage": stage})
    deadline = time.monotonic() + 120.0
    last, stable = None, 0
    while time.monotonic() < deadline:
        remote = ask_worker(node, "platform_stats")
        current = (platform.stats()["messages_processed"], remote["messages_processed"])
        stable = stable + 1 if current == last else 0
        if stable >= 3:
            return remote
        last = current
        pump_until(node, lambda wake=time.monotonic() + 0.25: time.monotonic() >= wake)
    raise TimeoutError("cluster did not reach quiescence")


def main() -> None:
    node = start_node(SEED_ID)
    platform = Platform(node=node, is_seed=True)
    worker = spawn_worker(node.transport.address)
    try:
        pump_until(node, lambda: WORKER_ID in node.membership.alive_ids())
        print(f"cluster formed: {node.membership.alive_ids()}, epoch {node.table.epoch}")
        scenario = proximity_scenario(
            n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
        )
        messages = sorted(scenario.result.messages, key=lambda m: m.t)
        published = processed = 0
        for i in range(0, len(messages), 500):
            published += platform.publish_messages(messages[i : i + 500])
            processed += platform.ingest_available(node.pump)
            node.tick()
        remote = settle(platform, node)
        vessels = {SEED_ID: platform.vessel_count, WORKER_ID: remote["vessels_local"]}
        events = {
            kind: platform.event_count(kind) + remote[f"events_{kind}"]
            for kind in ("proximity", "collision")
        }
        wire = node.transport.stats()
        print(f"published {published} positions, seed dispatched {processed}")
        print(f"vessels sharded: {vessels}")
        print(f"events resolved: {events} ({len(scenario.events)} encounters in ground truth)")
        print(
            f"seed transport: {wire['batches_sent']} batches carrying "
            f"{wire['frames_batched']} frames, {wire['bytes_sent']} bytes on the wire"
        )
    finally:
        try:
            ask_worker(node, "shutdown")
            worker.wait(timeout=30.0)
        except Exception:
            worker.kill()
        platform.shutdown()

    checks = {
        "the worker owns no vessel": not vessels[WORKER_ID],
        "dispatched != published positions": processed != published,
        "no proximity event was resolved": not events["proximity"],
    }
    sys.exit("\n".join(f"FAIL: {reason}" for reason, failed in checks.items() if failed) or 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker_main(sys.argv[2], int(sys.argv[3]))
    else:
        main()
