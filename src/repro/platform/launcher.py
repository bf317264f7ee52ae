"""Where every cluster node is built, and the loop a TCP node runs.

``python -m repro.platform.launcher --id node-01 --join node-00@127.0.0.1:40123`` runs a
worker joined to a TCP seed. It answers the platform control ops plus ``shutdown``, then
exits 0 (1 if the seed went down first). The seed stays in the process that publishes,
because it holds the broker (DESIGN.md §3f).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.cluster import ClusterConfig, ClusterNode, TcpTransport, Transport
from repro.platform.pipeline import Platform

#: A process cluster's settings: timeouts a loaded box does not trip, and no
#: ``transport_batching`` (the outbox and ``TcpTransport``'s writer coalesce frames).
PROCESS_CLUSTER = ClusterConfig(heartbeat_interval_s=0.5, suspect_after_s=5.0, down_after_s=15.0)


def build_node(
    node_id: str,
    transport: Transport,
    *,
    forecaster=None,
    config=None,
    cluster_config: ClusterConfig | None = None,
    clock: Callable[[], float] = time.monotonic,
    join: tuple[str, Any] | None = None,
) -> Platform:
    """Start a node on ``transport`` and build its platform. ``join`` is the seed's
    ``(node_id, address)``: the join is sent, not awaited. Without it the node is the seed."""
    node = ClusterNode(node_id, transport, config=cluster_config, clock=clock)
    node.start()
    platform = Platform(forecaster, config, node=node, is_seed=join is None)
    if join is not None:
        node.join(*join)
    return platform


def pump_until(nodes: Sequence[ClusterNode], done: Callable[[], Any], timeout_s=60.0) -> None:
    """Pump and tick every node on this thread until ``done()``: a TCP node's whole loop."""
    deadline = time.monotonic() + timeout_s
    while not done():
        if time.monotonic() > deadline:
            raise TimeoutError("the cluster did not answer in time")
        for node in nodes:
            node.pump(0.01 / len(nodes))
            node.tick()


def ask(node: ClusterNode, node_id: str, op: str, params: dict | None = None) -> Any:
    """A control ask of ``node_id``, answered while this thread pumps ``node``."""
    future = node.ask_control(node_id, op, params)
    pump_until([node], lambda: future.done)
    return future.result()


def settle(seed: Platform, worker: str) -> dict:
    """The flush barrier over the control channel: each of ``wiring.batch_stages`` on the
    seed and on ``worker``, then poll both ``messages_processed`` counters until three polls
    in a row see no change. Returns the worker's ``platform_stats``."""
    for stage in range(len(seed.wiring.batch_stages)):
        seed.flush_stage(stage)
        ask(seed.node, worker, "flush_stage", {"stage": stage})
    deadline = time.monotonic() + 120.0
    last, stable = None, 0
    while time.monotonic() < deadline:
        remote = ask(seed.node, worker, "platform_stats")
        current = (seed.stats()["messages_processed"], remote["messages_processed"])
        stable = stable + 1 if current == last else 0
        if stable >= 3:
            return remote
        last = current
        pump_until([seed.node], lambda wake=time.monotonic() + 0.25: time.monotonic() >= wake)
    raise TimeoutError("the cluster did not reach quiescence")


def spawn_worker(node_id: str, seed: Platform):
    """Start a worker process joined to ``seed`` (a :class:`subprocess.Popen`). It imports
    this copy of ``repro`` whatever its working directory."""
    import subprocess

    path = [str(Path(__file__).resolve().parents[2]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    host, port = seed.node.transport.address
    join = f"{seed.node.node_id}@{host}:{port}"
    argv = [sys.executable, "-m", "repro.platform.launcher", "--id", node_id, "--join", join]
    return subprocess.Popen(argv, env=env)


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.platform.launcher")
    parser.add_argument("--id", required=True, help="this node's id, e.g. node-01")
    parser.add_argument("--join", required=True, metavar="SEED@HOST:PORT")
    args = parser.parse_args(argv)
    seed_id, _, address = args.join.partition("@")
    host, _, port = address.rpartition(":")
    join = (seed_id, (host, int(port)))
    platform = build_node(args.id, TcpTransport(), cluster_config=PROCESS_CLUSTER, join=join)
    node, stopping = platform.node, []
    node.register_control("shutdown", lambda params: stopping.append(True) or {"ok": 1})
    try:
        pump_until([node], node.joined.is_set, timeout_s=30.0)
        print(f"{args.id}: joined {seed_id} at {address}", flush=True)
        alive = node.membership.alive_ids
        pump_until([node], lambda: stopping or seed_id not in alive(), float("inf"))
    finally:
        platform.shutdown()  # flushes the shutdown reply before closing
    return 0 if stopping else 1


if __name__ == "__main__":
    sys.exit(main())
