"""Figure 6: average processing time vs number of active actors.

Protocol (Section 6.3): the platform ingests the global real-time stream
with the short-term forecasting model mounted as the typical workload;
per-message processing time is recorded together with the number of
distinct MMSIs (vessel actors) active at that moment, and plotted as a
moving-window average over 100 actors. The paper's run covered 72 hours and
170K vessels on a 12-core VM; this driver scales the stream to the host
(the curve *shape* — an initialisation spike while the actor population
grows, then a stable low plateau — is the reproduced claim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ais.datasets import scalability_fleet_config
from repro.ais.fleet import FleetEngine
from repro.models.base import RouteForecaster
from repro.platform import Platform, PlatformConfig


@dataclass
class Figure6Result:
    """The reproduced Figure 6 series plus run diagnostics."""

    actor_counts: np.ndarray          #: distinct vessel actors (x axis)
    avg_processing_time_s: np.ndarray  #: smoothed mean per-message time
    total_messages: int
    total_vessels: int
    wall_time_s: float

    @property
    def peak_time_s(self) -> float:
        return float(self.avg_processing_time_s.max())

    @property
    def peak_actor_count(self) -> int:
        return int(self.actor_counts[int(self.avg_processing_time_s.argmax())])

    def plateau_mean_s(self, tail_fraction: float = 0.5) -> float:
        """Mean processing time over the last ``tail_fraction`` of the
        actor-count range (the stable state)."""
        start = int(len(self.avg_processing_time_s) * (1.0 - tail_fraction))
        return float(self.avg_processing_time_s[start:].mean())

    def has_warmup_transient(self, init_fraction: float = 0.4) -> bool:
        """Whether the curve changes materially during the initialisation
        phase (low actor counts) before settling.

        The paper reports a *downward* transient (expensive actor creation
        on the JVM); our runtime shows an *upward* one (cheap Python actor
        spawn, the forecast dominating once history windows fill) — both
        are the same phenomenon: a warm-up phase ending in a stable state.
        EXPERIMENTS.md discusses the sign difference.
        """
        n = self.avg_processing_time_s.size
        if n < 4:
            return False
        head = self.avg_processing_time_s[:max(1, int(n * init_fraction))]
        plateau = self.plateau_mean_s()
        change = abs(float(head[0]) - plateau) / max(plateau, 1e-12)
        return change > 0.15

    def plateau_is_stable(self, tail_fraction: float = 0.5,
                          tolerance: float = 0.35) -> bool:
        """The scalability claim: once warmed up, per-message processing
        time no longer grows with the number of actors (within
        ``tolerance`` relative variation over the plateau)."""
        n = self.avg_processing_time_s.size
        if n < 4:
            return False
        tail = self.avg_processing_time_s[int(n * (1.0 - tail_fraction)):]
        mean = float(tail.mean())
        if mean <= 0:
            return False
        return float(tail.max() - tail.min()) / mean <= tolerance

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.total_messages / self.wall_time_s if self.wall_time_s else 0.0


def run_figure6(forecaster: RouteForecaster, n_vessels: int = 3_000,
                duration_s: float = 3_600.0, seed: int = 3,
                window_actors: int = 100,
                platform_config: PlatformConfig | None = None
                ) -> Figure6Result:
    """Regenerate the Figure 6 measurement on a scaled global stream.

    The stream is generated tick by tick and fed through the full platform
    (vessel actors -> forecasts -> cell/collision/flow/writer actors) with
    metrics recording enabled; vessels first appear throughout the run so
    the actor population grows exactly as the paper's x axis does.
    """
    import time

    config = platform_config or PlatformConfig(record_metrics=True)
    if not config.record_metrics:
        raise ValueError("Figure 6 needs record_metrics=True")
    platform = Platform(forecaster=forecaster, config=config)
    engine = FleetEngine(scalability_fleet_config(
        n_vessels=n_vessels, duration_s=duration_s, seed=seed))

    total = 0
    start = time.perf_counter()
    last_housekeeping = 0.0
    for tick in engine.stream():
        if len(tick):
            platform.publish_batch(tick)
            total += platform.process_available()
            now = platform.system.now
            if now - last_housekeeping > 1_800.0:
                platform.housekeeping()
                last_housekeeping = now
    wall = time.perf_counter() - start

    counts, times = platform.system.metrics.curve_by_actor_count(
        window_actors=window_actors)
    return Figure6Result(actor_counts=counts, avg_processing_time_s=times,
                         total_messages=total,
                         total_vessels=platform.vessel_count,
                         wall_time_s=wall)


def seeded_svrf_forecaster():
    """An S-VRF model with seeded weights and identity-ish scalers.

    Matmul cost does not depend on the weight values, so this is the
    same-architecture forward the trained platform runs — without CI
    training a model to time one. The compute-heavy workload of
    ``bench/``'s ``fleet_svrf`` / ``cluster4_svrf`` (~100-200 us of model
    compute per kept fix, an order of magnitude over the seed's
    per-message routing cost, so distributing vessel actors actually
    moves the critical path).
    """
    from repro.ml import StandardScaler
    from repro.models.svrf import SVRFConfig, SVRFModel

    model = SVRFModel(SVRFConfig(seed=0))
    model.x_scaler = StandardScaler.from_state(
        {"mean": np.zeros(3), "std": np.ones(3)})
    out = model.config.output_steps * 2
    model.y_scaler = StandardScaler.from_state(
        {"mean": np.zeros(out), "std": np.full(out, 1e-3)})
    model.trained = True
    return model
