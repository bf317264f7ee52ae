"""Benchmark regenerating Figure 6: processing time vs number of actors.

Feeds a scaled global AIS stream through the full platform (vessel actors
running the shared S-VRF model, cell/collision/flow/writer actors) with
per-message metrics enabled, then prints the Figure 6 series (100-actor
moving window) and asserts the reproduced shape: millisecond-scale
processing, a warm-up transient at low actor counts, and a plateau that
stays stable as the actor population keeps growing — the paper's
scalability claim.

The paper ran 170K vessels for 72 h on a 12-core VM; the default here is
sized for a single-core CI box (see EXPERIMENTS.md for the scaling note and
``examples/run_figure6.py`` for larger runs).
"""

from __future__ import annotations

from conftest import bench_scale, write_result

from repro.evaluation import run_figure6
from repro.evaluation.reporting import format_figure6


def test_figure6_scalability(benchmark, svrf_model):
    scale = bench_scale()
    result = benchmark.pedantic(
        lambda: run_figure6(svrf_model, n_vessels=int(1_000 * scale),
                            duration_s=2_400.0 * min(scale, 3.0), seed=3),
        rounds=1, iterations=1)
    write_result("figure6", format_figure6(result))

    # Most of the configured fleet was tracked and produced work.
    assert result.total_vessels > 700 * scale
    assert result.total_messages > 10_000 * scale
    # Millisecond-scale per-message processing ("averages less than a few
    # milliseconds", Section 6.3).
    assert result.plateau_mean_s() < 0.010
    # Warm-up transient followed by a stable plateau: processing time does
    # not degrade as the actor population grows.
    assert result.has_warmup_transient()
    assert result.plateau_is_stable()


def test_figure6_soak_memory_bounded(benchmark, svrf_model):
    """Scaled-down analogue of the 72-hour no-memory-issue claim: with
    periodic housekeeping, spatial actor state does not grow without bound
    relative to the live fleet."""
    from repro.ais.datasets import scalability_fleet_config
    from repro.ais.fleet import FleetEngine
    from repro.platform import Platform, PlatformConfig

    def run():
        platform = Platform(forecaster=svrf_model,
                            config=PlatformConfig(record_metrics=False))
        engine = FleetEngine(scalability_fleet_config(n_vessels=300,
                                                      duration_s=3_600.0))
        for tick in engine.stream():
            if len(tick):
                platform.publish_batch(tick)
                platform.process_available()
        platform.housekeeping()
        return platform

    platform = benchmark.pedantic(run, rounds=1, iterations=1)

    # After housekeeping every proximity detector has pruned observations
    # older than its time window, so total tracked positions across all
    # proximity cells stay bounded by the live fleet (not by stream length).
    total_tracked = sum(
        detector.tracked_vessels
        for detector in platform.wiring.proximity_cells.cells.values())
    assert total_tracked <= 300 * 3  # fan-out to a few cells per vessel

    # Writer-side state is one hash per vessel plus bounded event lists.
    assert platform.kvstore.zcard("vessels:last_seen") <= 300
    assert platform.api.vessel_count() <= 300
