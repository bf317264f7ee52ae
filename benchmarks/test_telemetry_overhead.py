"""Telemetry must cost at most 5% extra CPU on the cluster hot path.

The scaled Figure 6 stream runs through a 2-node batched
:class:`~repro.platform.LoopbackCluster` with ``record_telemetry`` off and
on. Overhead is the *best adjacent-pair CPU ratio*: every repeat runs the
two legs back to back (order alternating), so each pair shares the box's
momentary mood, and the check takes the minimum on/off ratio across pairs.
A genuine overhead is present in every pair; box interference (which
swings identical runs by far more than 5%) inflates only some of them, so
the minimum strips it. CPU time rather than wall time because telemetry's
cost is added work, which ``time.process_time`` measures directly.

A timing check, so it lives here and in CI's ``bench`` job, not in tier-1.
It goes when stage timers move inside ``repro.telemetry`` (ROADMAP item 7)
and ``bench/``'s ``trace.overhead_share`` reads the same registry.
"""

from __future__ import annotations

import gc
import time

from repro.ais.datasets import scalability_fleet_config
from repro.ais.fleet import FleetEngine
from repro.cluster import ClusterConfig
from repro.platform import LoopbackCluster, PlatformConfig

MAX_OVERHEAD = 0.05
REPEATS = 3


def cpu_seconds(telemetry: bool) -> float:
    gc.collect()
    cluster = LoopbackCluster(
        num_nodes=2,
        config=PlatformConfig(
            record_metrics=True, record_telemetry=telemetry, trace_sample_every=32
        ),
        cluster_config=ClusterConfig(transport_batching=True),
    )
    engine = FleetEngine(scalability_fleet_config(n_vessels=200, duration_s=600.0, seed=3))
    start = time.process_time()
    for tick in engine.stream():
        if len(tick):
            cluster.seed.publish_batch(tick)
            cluster.process_available()
    elapsed = time.process_time() - start
    cluster.shutdown()
    return elapsed


def test_telemetry_cpu_overhead_within_five_percent():
    ratios = []
    for i in range(REPEATS):
        pair = {}
        order = (False, True) if i % 2 == 0 else (True, False)
        for telemetry in order:
            pair[telemetry] = cpu_seconds(telemetry)
        ratios.append(pair[True] / pair[False])
    print("telemetry on/off cpu ratios:", ", ".join(f"{r:.3f}" for r in ratios))
    assert min(ratios) - 1.0 <= MAX_OVERHEAD
