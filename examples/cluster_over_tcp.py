"""The sharded platform across two OS processes over TCP.

This process is the seed (broker, ingestion, its share of the actors); a worker process,
``python -m repro.platform.launcher``, joins it and hosts the rest. An Aegean proximity
scenario streams through both, and the events their cells resolve are counted. Tests and
``bench/`` use the in-process :class:`~repro.platform.LoopbackCluster`. Exits non-zero only
if the worker owns no vessel, dispatched != published positions, or no proximity event was
resolved.

Run:  python examples/cluster_over_tcp.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ais.datasets import proximity_scenario  # noqa: E402
from repro.cluster import TcpTransport  # noqa: E402
from repro.platform import launcher  # noqa: E402

SEED_ID, WORKER_ID = "node-00", "node-01"


def main() -> None:
    seed = launcher.build_node(SEED_ID, TcpTransport(), cluster_config=launcher.PROCESS_CLUSTER)
    node = seed.node
    worker = launcher.spawn_worker(WORKER_ID, seed)
    try:
        launcher.pump_until([node], lambda: WORKER_ID in node.membership.alive_ids())
        print(f"cluster formed: {node.membership.alive_ids()}, epoch {node.table.epoch}")
        scenario = proximity_scenario(
            n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
        )
        messages = sorted(scenario.result.messages, key=lambda m: m.t)
        published = processed = 0
        for i in range(0, len(messages), 500):
            published += seed.publish_messages(messages[i : i + 500])
            processed += seed.ingest_available(node.pump)
            node.tick()
        remote = launcher.settle(seed, WORKER_ID)
        vessels = {SEED_ID: seed.vessel_count, WORKER_ID: remote["vessels_local"]}
        events = {
            kind: seed.event_count(kind) + remote[f"events_{kind}"]
            for kind in ("proximity", "collision")
        }
        wire = node.transport.stats()
        print(f"published {published} positions, seed dispatched {processed}")
        print(f"vessels sharded: {vessels}")
        print(f"events resolved: {events} ({len(scenario.events)} encounters in ground truth)")
        print(
            f"seed transport: {wire['frames_sent']} frames in {wire['writes']} writes, "
            f"{wire['bytes_sent']} bytes on the wire"
        )
    finally:
        try:
            launcher.ask(node, WORKER_ID, "shutdown")
            worker.wait(timeout=30.0)
        except Exception:
            worker.kill()
        seed.shutdown()

    checks = {
        "the worker owns no vessel": not vessels[WORKER_ID],
        "dispatched != published positions": processed != published,
        "no proximity event was resolved": not events["proximity"],
    }
    sys.exit("\n".join(f"FAIL: {reason}" for reason, failed in checks.items() if failed) or 0)


if __name__ == "__main__":
    main()
