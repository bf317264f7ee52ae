"""Distributed Figure 6: the sharded platform across two OS processes.

Spawns a second worker process, forms a TCP cluster (seed-node join,
heartbeats, consistent-hash shard table), then streams the scaled global
AIS workload through the sharded platform twice — on a single node, and
over both nodes with the full outbound pipeline (writer threads,
micro-batching, struct fast-path codec) — and writes the machine-readable
comparison to ``BENCH_cluster.json``:

    {"one_node": {"msgs_per_s": ..., "p50_ms": ..., "p99_ms": ...},
     "two_node_batched": {..., "transport": {...}},
     "scaling": {"points": [...], "speedup_4_over_2": ...}}

The pre-optimisation wire path (synchronous frame-per-message sends,
whole-frame pickle codec) is gone from the code: its first recorded
two-node numbers (188 msg/s, 128 ms p99) anchor the ``--min-speedup``
gate, and the ``two_node`` row already in ``BENCH_cluster.json`` is left
untouched as history.

A third leg records the N-node scaling curve (1/2/4/8 nodes; 1/2/4
under ``--smoke``) through the deterministic loopback cluster with
per-node busy-time attribution — the evidence behind the live-shard-
rebalancing scaling claim. ``--scaling-only`` refreshes just that
section without re-running the TCP legs.

Run:  python examples/run_figure6_cluster.py [--vessels N] [--minutes M]
      python examples/run_figure6_cluster.py --smoke --min-speedup 2.0
      python examples/run_figure6_cluster.py --scaling-only

The paper's deployment shards 170K vessel actors over an Akka cluster;
this driver demonstrates the same topology end to end: remote transport,
membership, location-transparent refs, and collision/proximity events
resolved by cell actors regardless of which node hosts them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.ais.datasets import (  # noqa: E402
    proximity_scenario,
    scalability_fleet_config,
)
from repro.ais.fleet import FleetEngine  # noqa: E402
from repro.cluster import ClusterConfig, ClusterNode, TcpTransport  # noqa: E402
from repro.evaluation import run_scaling_curve  # noqa: E402
from repro.platform import DistributedPlatform  # noqa: E402

#: Generous timeouts — a loaded CI box must not trip the failure detector.
CLUSTER_CONFIG = ClusterConfig(heartbeat_interval_s=0.5,
                               suspect_after_s=5.0, down_after_s=15.0)
#: Same timeouts with per-peer outbound micro-batching switched on.
BATCHED_CONFIG = dataclasses.replace(CLUSTER_CONFIG, transport_batching=True)
SEED_ID = "node-00"
WORKER_ID = "node-01"

#: The two-node numbers recorded in BENCH_cluster.json before the batched
#: transport landed (the "5x cross-node gap"): the only anchor of the
#: ``--min-speedup`` gate.
PRE_OPT_TWO_NODE_MSGS_PER_S = 188.0
PRE_OPT_TWO_NODE_P99_MS = 128.0


def make_node(node_id: str, record_metrics: bool = True,
              batching: bool = False) -> ClusterNode:
    config = BATCHED_CONFIG if batching else CLUSTER_CONFIG
    transport = TcpTransport(port=0,
                             queue_frames=config.outbound_queue_frames,
                             block_timeout_s=config.send_block_timeout_s)
    workers = int(os.environ.get("REPRO_CLUSTER_WORKERS", "0")) \
        or max(2, (os.cpu_count() or 2) // 2)
    node = ClusterNode(node_id, transport,
                       config=config, system_mode="threaded",
                       workers=workers,
                       record_metrics=record_metrics)
    node.start()
    return node


def ticker(node: ClusterNode, stop) -> None:
    while not stop.is_set():
        node.tick()
        stop.wait(CLUSTER_CONFIG.heartbeat_interval_s / 2)


# -- worker process ------------------------------------------------------------------


def worker_main(args) -> None:
    import threading

    node = make_node(WORKER_ID, batching=args.batching)
    platform = DistributedPlatform(node, is_seed=False)
    stop = threading.Event()
    node.register_control("shutdown", lambda params: stop.set() or {"ok": 1})
    node.join(SEED_ID, (args.seed_host, args.seed_port))
    if not node.joined.wait(timeout=30.0):
        print("worker: join timed out", file=sys.stderr)
        sys.exit(2)
    print(f"worker: joined cluster as {WORKER_ID}", flush=True)
    ticker(node, stop)
    # Drain any in-flight work before exiting so late frames don't error.
    node.system.await_idle(timeout=10.0)
    time.sleep(0.5)
    platform.shutdown()


# -- driver --------------------------------------------------------------------------


def spawn_worker(seed_address, batching: bool = False) -> subprocess.Popen:
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, os.path.abspath(__file__), "--worker",
            "--seed-host", str(seed_address[0]),
            "--seed-port", str(seed_address[1])]
    if batching:
        argv.append("--batching")
    return subprocess.Popen(argv, env=env)


def wait_until_stable(platforms_stats, lag_fn, timeout_s: float = 120.0,
                      polls: int = 3, interval_s: float = 0.25) -> float:
    """Poll processed-message counters until the cluster goes quiet.

    Returns the monotonic time at which the final counter value was first
    observed, so callers can measure wall time up to when work actually
    finished rather than when the poller noticed (the detection tail is a
    constant ~``polls * interval_s`` that would otherwise dilute
    throughput ratios between fast and slow runs equally).
    """
    deadline = time.monotonic() + timeout_s
    stable = 0
    last = None
    settled_at = time.monotonic()
    while time.monotonic() < deadline:
        current = tuple(s()["messages_processed"] for s in platforms_stats)
        if lag_fn() == 0 and current == last:
            stable += 1
            if stable >= polls:
                return settled_at
        else:
            stable = 0
            settled_at = time.monotonic()
        last = current
        time.sleep(interval_s)
    raise TimeoutError("cluster did not reach quiescence")


def drive_stream(platform: DistributedPlatform, engine: FleetEngine,
                 sync_nodes: list[str]) -> int:
    total = 0
    for tick in engine.stream():
        if len(tick):
            platform.publish_batch(tick)
            total += platform.ingest_available()
    now = platform.system.now
    for node_id in sync_nodes:
        try:
            platform.node.ask_control(node_id, "sync_clock", {"now": now})
        except Exception:
            pass
    return total


def flush_cluster_writers(platform: DistributedPlatform, node: ClusterNode,
                          remote_ids: list[str]) -> None:
    """Flush every node's pending micro-batches so KV event counts include
    everything processed: the cluster-wide flush barrier, one of
    ``wiring.batch_stages`` at a time (DESIGN.md, "Micro-batching")."""
    for stage in range(len(platform.wiring.batch_stages)):
        platform.flush_stage(stage)
        for node_id in remote_ids:
            try:
                node.ask_control(node_id, "flush_stage",
                                 {"stage": stage}).result(10.0)
            except Exception:
                pass
        platform.system.await_idle(timeout=30.0)


def run_event_parity(seed: int) -> dict:
    """Prove batching does not change what the platform computes.

    Thread scheduling makes TCP-cluster event counts arrival-order
    sensitive (the proximity detector debounces per vessel pair), so the
    apples-to-apples comparison runs the same scenario through the
    deterministic loopback cluster with and without batching: identical
    sharding, identical codec, identical event counts required.
    """
    from repro.platform.distributed import LoopbackCluster

    scenario = proximity_scenario(n_event_pairs=4, n_near_miss_pairs=2,
                                  n_background=2, duration_s=3_600.0,
                                  seed=seed)
    ordered = sorted(scenario.result.messages, key=lambda m: m.t)
    counts = {}
    for label, config in (("unbatched", CLUSTER_CONFIG),
                          ("batched", BATCHED_CONFIG)):
        cluster = LoopbackCluster(num_nodes=2, cluster_config=config)
        try:
            for i in range(0, len(ordered), 500):
                cluster.seed.publish_messages(ordered[i:i + 500])
                cluster.process_available()
            counts[label] = {
                "proximity": cluster.event_count("proximity"),
                "collision": cluster.event_count("collision"),
                "vessel_distribution": cluster.vessel_distribution(),
            }
        finally:
            cluster.shutdown()
    counts["identical"] = counts["unbatched"] == counts["batched"]
    return counts


def run_scaling_leg(smoke: bool) -> dict:
    """The N-node scaling curve: the same S-VRF-loaded workload at every
    cluster size, on the deterministic loopback cluster with per-node
    busy-time attribution, so the numbers are scheduler-noise free (see
    :func:`repro.evaluation.run_scaling_curve`). Throughput is messages
    over the busiest single node's attributed time — what a
    one-core-per-node deployment would wait for."""
    node_counts = (1, 2, 4) if smoke else (1, 2, 4, 8)
    vessels = 96
    duration_s = 3_600.0
    curve = run_scaling_curve(node_counts=node_counts, n_vessels=vessels,
                              duration_s=duration_s)
    report = curve.as_report()
    report["workload"] = {"vessels": vessels, "sim_seconds": duration_s,
                          "node_counts": list(node_counts)}
    report["speedup_4_over_2"] = curve.speedup(2, 4)
    for point in curve.points:
        print(f"      {point.num_nodes} node(s): "
              f"{point.throughput_msgs_per_s:.0f} msg/s critical-path "
              f"({point.messages} msgs, busiest node "
              f"{point.critical_path_s:.2f}s, "
              f"{point.forecast_batches} forecast batches)")
    print(f"      4-node over 2-node speedup: "
          f"{report['speedup_4_over_2']:.2f}x")
    return report


def run_event_check(platform: DistributedPlatform, node: ClusterNode,
                    stats_fns, before: dict) -> dict:
    """Stream a small Aegean proximity scenario through the running
    cluster and report the events its cell actors resolve — proof that
    proximity/collision detection works across node boundaries."""
    scenario = proximity_scenario(n_event_pairs=4, n_near_miss_pairs=2,
                                  n_background=2, duration_s=3_600.0)
    messages = sorted(scenario.result.messages, key=lambda m: m.t)
    platform.publish_messages(messages)
    while platform.ingest_available() or platform.ingestion.lag:
        pass
    platform.system.await_idle(timeout=60.0)
    flush_cluster_writers(platform, node, [WORKER_ID])
    wait_until_stable(stats_fns, lambda: platform.ingestion.lag)

    proximity = platform.event_count("proximity")
    collision = platform.event_count("collision")
    remote = node.ask_control(WORKER_ID, "platform_stats").result(10.0)
    proximity += remote["events_proximity"]
    collision += remote["events_collision"]
    return {"scenario_vessels": scenario.n_vessels,
            "scenario_messages": len(messages),
            "ground_truth_events": len(scenario.events),
            "proximity": proximity - before["proximity"],
            "collision": collision - before["collision"]}


def run_benchmark(num_nodes: int, vessels: int, minutes: float,
                  seed: int, batching: bool = False) -> dict:
    import threading

    from repro.cluster import codec

    codec.reset_counters()
    node = make_node(SEED_ID, batching=batching)
    platform = DistributedPlatform(node, is_seed=True)
    stop = threading.Event()
    tick_thread = threading.Thread(target=ticker, args=(node, stop),
                                   daemon=True)
    tick_thread.start()
    worker = None
    try:
        if num_nodes == 2:
            worker = spawn_worker(node.transport.address, batching=batching)
            deadline = time.monotonic() + 60.0
            while WORKER_ID not in node.membership.alive_ids():
                if time.monotonic() > deadline:
                    raise TimeoutError("worker never joined")
                time.sleep(0.1)
            print(f"  cluster formed: {node.membership.alive_ids()}, "
                  f"shard table epoch {node.table.epoch}")

        engine = FleetEngine(scalability_fleet_config(
            n_vessels=vessels, duration_s=minutes * 60.0, seed=seed))
        stats_fns = [lambda: platform.stats()]
        if num_nodes == 2:
            stats_fns.append(
                lambda: node.ask_control(WORKER_ID,
                                         "platform_stats").result(10.0))

        start = time.monotonic()
        total = drive_stream(platform, engine,
                             [WORKER_ID] if num_nodes == 2 else [])
        platform.system.await_idle(timeout=120.0)
        flush_cluster_writers(platform, node,
                              [WORKER_ID] if num_nodes == 2 else [])
        settled_at = wait_until_stable(stats_fns,
                                       lambda: platform.ingestion.lag)
        wall = settled_at - start

        snapshots = {SEED_ID: platform.metrics_snapshot()}
        distribution = {SEED_ID: platform.vessel_count}
        events = {"proximity": platform.event_count("proximity"),
                  "collision": platform.event_count("collision")}
        if num_nodes == 2:
            snapshots[WORKER_ID] = node.ask_control(
                WORKER_ID, "metrics_snapshot").result(10.0)
            remote = node.ask_control(WORKER_ID,
                                      "platform_stats").result(10.0)
            distribution[WORKER_ID] = remote["vessels_local"]
            events["proximity"] += remote["events_proximity"]
            events["collision"] += remote["events_collision"]
            event_check = run_event_check(platform, node, stats_fns, events)

        samples = sum(s.get("samples", 0) for s in snapshots.values()) or 1
        merged = {
            "msgs_per_s": total / wall if wall else 0.0,
            "p50_ms": sum(s.get("p50_ms", 0.0) * s.get("samples", 0)
                          for s in snapshots.values()) / samples,
            "p99_ms": sum(s.get("p99_ms", 0.0) * s.get("samples", 0)
                          for s in snapshots.values()) / samples,
            "messages": total,
            "wall_s": wall,
            "vessel_distribution": distribution,
            "events": events,
            "per_node": snapshots,
            "transport": node.transport.stats(),
            "codec": codec.counters(),
        }
        if num_nodes == 2:
            merged["event_check"] = event_check
        return merged
    finally:
        if worker is not None:
            try:
                node.ask_control(WORKER_ID, "shutdown").result(5.0)
            except Exception:
                pass
            try:
                worker.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                worker.kill()
        stop.set()
        platform.shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vessels", type=int, default=1_000)
    parser.add_argument("--minutes", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (200 vessels, 10 minutes)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless batched two-node throughput is at "
                             "least this multiple of the recorded 188 msg/s "
                             "pre-optimisation baseline, and batched p99 is "
                             "under half the recorded 128 ms")
    parser.add_argument("--output", default="BENCH_cluster.json")
    parser.add_argument("--scaling-only", action="store_true",
                        help="run just the N-node scaling curve and merge "
                             "it into the existing report file")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--batching", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--seed-host", default="127.0.0.1",
                        help=argparse.SUPPRESS)
    parser.add_argument("--seed-port", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        worker_main(args)
        return
    if args.smoke:
        args.vessels, args.minutes = 200, 10.0

    if args.scaling_only:
        print("N-node scaling curve (loopback, busy-time attribution)...")
        scaling = run_scaling_leg(args.smoke)
        path = Path(args.output)
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded["scaling"] = scaling
        path.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"wrote {args.output} (scaling section)")
        return

    print(f"Figure 6 (distributed): {args.vessels} vessels, "
          f"{args.minutes:.0f} simulated minutes, TCP transport")
    print("[1/3] single-node baseline...")
    one = run_benchmark(1, args.vessels, args.minutes, args.seed)
    print(f"      {one['messages']} msgs in {one['wall_s']:.1f}s "
          f"({one['msgs_per_s']:.0f} msg/s, p50 {one['p50_ms']:.2f} ms, "
          f"p99 {one['p99_ms']:.2f} ms)")
    print("[2/3] two-node sharded cluster, batched transport + fast codec...")
    batched = run_benchmark(2, args.vessels, args.minutes, args.seed,
                            batching=True)
    print(f"      {batched['messages']} msgs in {batched['wall_s']:.1f}s "
          f"({batched['msgs_per_s']:.0f} msg/s, "
          f"p50 {batched['p50_ms']:.2f} ms, "
          f"p99 {batched['p99_ms']:.2f} ms)")
    print(f"      vessels sharded: {batched['vessel_distribution']}, "
          f"events: {batched['events']}")
    check = batched["event_check"]
    print(f"      event check (Aegean scenario through the cluster): "
          f"{check['proximity']} proximity / {check['collision']} collision "
          f"events resolved ({check['ground_truth_events']} in ground truth)")
    tstats = batched["transport"]
    print(f"      transport: {tstats.get('batches_sent', 0)} batches / "
          f"{tstats.get('frames_batched', 0)} frames batched, "
          f"{tstats.get('bytes_sent', 0)} bytes on the wire")
    speedup_vs_recorded = (batched["msgs_per_s"]
                           / PRE_OPT_TWO_NODE_MSGS_PER_S)
    print(f"      speedup over the pre-optimisation wire path: "
          f"{speedup_vs_recorded:.2f}x over the recorded "
          f"{PRE_OPT_TWO_NODE_MSGS_PER_S:.0f} msg/s baseline")
    parity = run_event_parity(args.seed)
    print(f"      event parity (deterministic loopback): "
          f"unbatched {parity['unbatched']['proximity']} proximity / "
          f"{parity['unbatched']['collision']} collision, "
          f"batched {parity['batched']['proximity']} / "
          f"{parity['batched']['collision']} — "
          f"{'identical' if parity['identical'] else 'MISMATCH'}")
    print("[3/3] N-node scaling curve (loopback, busy-time attribution)...")
    scaling = run_scaling_leg(args.smoke)

    report = {
        "workload": {"vessels": args.vessels,
                     "sim_minutes": args.minutes, "seed": args.seed},
        "one_node": one,
        "two_node_batched": batched,
        "batched_speedup_vs_recorded_baseline": speedup_vs_recorded,
        "event_parity": parity,
        "scaling": scaling,
    }
    # Merge rather than overwrite: the bench gate records its own
    # sections (loopback_gate, forecast_gate, scaling_gate anchors) in
    # the same file and they must survive a Figure 6 refresh — as must
    # the historical ``two_node`` pre-optimisation row.
    path = Path(args.output)
    recorded = json.loads(path.read_text()) if path.exists() else {}
    recorded.update(report)
    path.write_text(json.dumps(recorded, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = False
    if not batched["vessel_distribution"].get(WORKER_ID):
        print("WARNING: no vessels landed on the worker node",
              file=sys.stderr)
        failed = True
    if not batched["event_check"]["proximity"]:
        print("WARNING: no proximity events resolved by the cluster",
              file=sys.stderr)
        failed = True
    # Batching must not change what the platform computes: the same
    # scenario through the deterministic loopback cluster has to resolve
    # the same events either way.
    if not parity["identical"]:
        print(f"WARNING: batched/unbatched event parity broken: "
              f"{parity['batched']} vs {parity['unbatched']}",
              file=sys.stderr)
        failed = True
    if args.min_speedup and speedup_vs_recorded < args.min_speedup:
        print(f"WARNING: batched speedup {speedup_vs_recorded:.2f}x vs the "
              f"recorded baseline is below the required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    if args.min_speedup and batched["p99_ms"] > PRE_OPT_TWO_NODE_P99_MS / 2:
        print(f"WARNING: batched p99 {batched['p99_ms']:.2f} ms is not "
              f"under half the recorded {PRE_OPT_TWO_NODE_P99_MS:.0f} ms "
              f"baseline", file=sys.stderr)
        failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
