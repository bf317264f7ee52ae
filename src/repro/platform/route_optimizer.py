"""Pooled per-node voyage replanning.

The rolling-horizon replanner is shaped exactly like the node's
:class:`~repro.platform.forecast_service.ForecastService`: vessel actors
:meth:`submit` a replan request instead of planning inline, requests pool
per node, and the batch executes after ``voyage_batch_max`` vessels or a
``voyage_linger_s`` virtual-time linger — then every requesting vessel
gets its :class:`~repro.platform.messages.PlanReady` reply in row
(submission) order.

Each plan is a pure function of ``(weather seed, route, deadline,
sample_t)`` via :func:`repro.models.voyage.plan_voyage` — pooling changes
*when* plans are computed, never what they contain, which is what lets
the fault-injection campaign compare plan fingerprints across crash
recovery and live shard migration.

The service is a plain shared object under a lock (not an actor); when a
batch executes is the shared
:class:`~repro.platform.batching.MicroBatcher` discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.models.fuel import FuelModel
from repro.models.voyage import Waypoint, plan_voyage
from repro.platform.batching import MicroBatcher
from repro.platform.messages import PlanReady
from repro.weather.forecast import ForecastingWeatherField

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring


class RouteOptimizerService:
    """Per-node pooling of vessel replan requests into planning batches."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self.wiring = wiring
        config = wiring.config
        self.batch_max = config.voyage_batch_max
        self.field: ForecastingWeatherField = wiring.weather
        self.fuel_model: FuelModel = wiring.fuel_model
        #: Pending requests in submission order: ``(mmsi, origin, route,
        #: deadline_t, base_speed_kn, sample_t, t_submitted)``.
        self._rows: list[tuple] = []
        self._batcher = MicroBatcher(
            wiring.system, self, lambda: len(self._rows), self._execute,
            max_size=self.batch_max, linger_s=config.voyage_linger_s,
            capacity_reason="max_batch", size_metric="voyage_batch_size",
            flushes_metric="voyage_flushes_total",
            latency_metric="voyage_plan_latency_s")
        self._batcher.spawn_timer("plan-flush")
        self.requests_pooled = 0
        self.plans_failed = 0

    # -- submission -----------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._rows)

    @property
    def batches_executed(self) -> int:
        return self._batcher.batches

    def submit(self, mmsi: int, origin: Waypoint,
               waypoints: tuple[Waypoint, ...], deadline_t: float,
               base_speed_kn: float, sample_t: float) -> None:
        """Queue one vessel's replan request; the plan comes back as a
        :class:`PlanReady` message after the pooled batch executes."""
        with self._batcher.lock:
            self._rows.append((mmsi, origin, waypoints, deadline_t,
                               base_speed_kn, sample_t,
                               self.wiring.system.now))
            self.requests_pooled += 1
            self._batcher.added()

    # -- flushing -------------------------------------------------------------------

    def flush(self, reason: str = "explicit") -> int:
        """Plan every pending request; returns how many plans were
        produced (0 for an empty flush)."""
        return self._batcher.flush(reason)

    def _execute(self, n: int) -> float:
        rows, self._rows = self._rows, []
        router = self.wiring.vessel_router
        for mmsi, origin, route, deadline, speed, sample_t, t0 in rows:
            try:
                plan = plan_voyage(
                    self.field, self.fuel_model, origin, route,
                    sample_t=sample_t, depart_t=sample_t,
                    deadline_t=deadline, base_speed_kn=speed)
            except Exception:
                # One degenerate route must not sink the batch: the
                # vessel keeps its previous plan and unblocks.
                self.plans_failed += 1
                plan = None
            router.tell(mmsi, PlanReady(plan=plan, t_submitted=t0))
        return rows[0][6]
