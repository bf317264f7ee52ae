"""The per-vessel actor.

"The core partitioning functionality generates multiple actors N, with each
one corresponding to a specific vessel as it is defined by its unique MMSI"
(Section 3). Each vessel actor:

* keeps the vessel's recent downsampled track (the S-VRF input window) in a
  preallocated :class:`~repro.platform.history.HistoryRing`,
* requests a forecast from the shared model on each kept fix — through the
  node's pooled :class:`~repro.platform.forecast_service.ForecastService`
  when batching is enabled, synchronously otherwise,
* fans its position out to the proximity cell actor of its H3 cell,
* has its forecast fanned out (:func:`share_forecasts`) to the collision
  actors of every cell the trajectory (dilated by one neighbour ring)
  touches, and to the traffic-flow actor,
* pushes its state snapshot to the writer actor,
* records proximity/collision alerts communicated back by the spatial
  actors ("they communicate their state back to the respective affected
  subset of vessel actors").

With pooled inference the state update of a forecast-triggering fix is
deferred until the :class:`~repro.platform.messages.ForecastReady` reply,
so the writer still observes every forecast exactly once; the in-flight
marker travels through ``export_state``/``restore_state`` so a checkpoint
taken mid-linger re-issues the request after recovery instead of dropping
it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.actors import Actor, ActorContext
from repro.hexgrid import grid_disk, latlng_to_cell, latlng_to_cells
from repro.platform.history import HistoryRing
from repro.platform.messages import (
    CellObservation,
    CollisionAlert,
    EventRecord,
    ForecastBatch,
    ForecastReady,
    PlanReady,
    PositionIngested,
    ProximityAlert,
    RestoreState,
    VesselStateUpdate,
    VoyageAssigned,
)

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring

#: Hex resolution of the proximity and of the collision cell actors
#: (H3 resolution 8, ~461 m edges: the paper's event cells).
PROXIMITY_RESOLUTION = 8
COLLISION_RESOLUTION = 8
#: Newly appeared vessels are forecast before their 20-displacement
#: window fills, by zero-padding the input (the original model's
#: "variable filling" [4]), once they hold this many fixes.
MIN_FORECAST_FIXES = 2
#: Default commanded speed for assigned voyages, knots.
VOYAGE_BASE_SPEED_KN = 12.0
#: Emit ``eta_breach`` when a plan's deadline slack falls below this.
VOYAGE_ETA_BREACH_S = 1_800.0

#: (base cell, rings) -> dilated neighbourhood. ``grid_disk`` is a pure
#: function and vessels revisit the same cells constantly; memoising the
#: disk removes it from the forecast fan-out hot path.
_DISK_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}
_DISK_CACHE_MAX = 1 << 20


def _disk(base: int, rings: int) -> tuple[int, ...]:
    key = (base, rings)
    cells = _DISK_CACHE.get(key)
    if cells is None:
        if len(_DISK_CACHE) >= _DISK_CACHE_MAX:
            _DISK_CACHE.clear()
        cells = _DISK_CACHE[key] = tuple(grid_disk(base, rings))
    return cells


def share_forecasts(wiring: "PlatformWiring", forecasts, after_row=None, sender=None) -> None:
    """Fan a flush's forecasts out in row order — row ``i`` to every
    collision cell its trajectory (dilated by the neighbour rings) touches,
    then ``after_row(i)`` — and to the flow actor in one :class:`ForecastBatch`.
    Row order keeps collision cells observing forecasts in the unbatched
    sequence; the synchronous path is a batch of one; ``None`` rows share
    nothing. One :func:`latlng_to_cells` call finds every row's cells."""
    shared = [forecast for forecast in forecasts if forecast is not None]
    points = [pos for forecast in shared for pos in forecast.positions]
    lats = [pos.lat for pos in points]
    bases = iter(latlng_to_cells(lats, [pos.lon for pos in points], COLLISION_RESOLUTION).tolist())
    rings = wiring.config.collision_neighbor_rings
    router = wiring.collision_router
    for i, forecast in enumerate(forecasts):
        if forecast is not None:
            cells: set[int] = set()
            for _ in forecast.positions:
                cells.update(_disk(next(bases), rings))
            router.share_forecast(cells, forecast, sender=sender)
        if after_row is not None:
            after_row(i)
    if shared:
        wiring.flow_ref.tell(ForecastBatch(forecasts=tuple(shared)), sender=sender)


class VesselActor(Actor):
    """Digital twin of one vessel."""

    def __init__(self, mmsi: int, wiring: "PlatformWiring") -> None:
        self.mmsi = mmsi
        self.wiring = wiring
        self.history = HistoryRing(max(wiring.forecaster_min_history, 1))
        self.kept_fixes = 0
        self.last_kept_t = float("-inf")
        self.last_message = None
        self.latest_forecast = None
        #: A forecast request is pooled in the forecast service and its
        #: state update deferred until the ForecastReady reply.
        self.pending_forecast = False
        self.event_flags: deque[str] = deque(maxlen=8)
        #: Voyage-optimization state (None until a VoyageAssigned lands):
        #: the assignment, the freshest plan, the bucket-quantised replan
        #: cursor, the in-flight-replan marker, and per-kind emission
        #: marks bounding event re-emission after replays.
        self.voyage: dict | None = None
        self.voyage_plan = None
        self.last_replan_t = float("-inf")
        self.pending_plan = False
        self.voyage_event_marks: dict[str, float] = {}

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, PositionIngested):
            self._on_position(message, ctx)
        elif isinstance(message, ForecastReady):
            self._on_forecast_ready(message, ctx)
        elif isinstance(message, VoyageAssigned):
            self._on_voyage_assigned(message)
        elif isinstance(message, PlanReady):
            self._on_plan_ready(message, ctx)
        elif isinstance(message, ProximityAlert):
            self.event_flags.append(f"proximity@{message.event.t:.0f}")
        elif isinstance(message, CollisionAlert):
            self.event_flags.append(f"collision@{message.event.t_expected:.0f}")
        elif isinstance(message, RestoreState):
            self.restore_state(message.state, ctx)
        # Unknown messages are ignored (actors are liberal receivers).

    # -- checkpointing -------------------------------------------------------------

    def export_state(self) -> dict:
        """Everything a freshly spawned twin needs to continue this
        vessel: the history window, downsampling cursor, event flags and
        the in-flight pending-forecast marker (a checkpoint taken
        mid-linger must re-issue the pooled request on recovery)."""
        return {
            "history": self.history.positions(),
            "kept_fixes": self.kept_fixes,
            "last_kept_t": self.last_kept_t,
            "last_message": self.last_message,
            "latest_forecast": self.latest_forecast,
            "pending_forecast": self.pending_forecast,
            "event_flags": list(self.event_flags),
            # Voyage assignment and plan state ride the same snapshot:
            # assignments are not in the AIS stream, so replay alone can
            # never rebuild them — recovery MUST carry them across.
            "voyage": self.voyage,
            "voyage_plan": self.voyage_plan,
            "last_replan_t": self.last_replan_t,
            "pending_plan": self.pending_plan,
            "voyage_event_marks": dict(self.voyage_event_marks),
        }

    def restore_state(self, state: dict, ctx: ActorContext | None = None) -> None:
        """Adopt checkpointed state iff it is *newer* than what this actor
        holds — a replayed stream suffix may already have rebuilt fresher
        state, which must win."""
        if state["last_kept_t"] <= self.last_kept_t:
            return
        self.history = HistoryRing.from_positions(
            state["history"], max(self.wiring.forecaster_min_history, 1)
        )
        self.kept_fixes = state["kept_fixes"]
        self.last_kept_t = state["last_kept_t"]
        self.last_message = state["last_message"]
        self.latest_forecast = state["latest_forecast"]
        self.event_flags = deque(state["event_flags"], maxlen=8)
        self.pending_forecast = False
        self.voyage = state.get("voyage")
        self.voyage_plan = state.get("voyage_plan")
        self.last_replan_t = state.get("last_replan_t", float("-inf"))
        self.voyage_event_marks = dict(state.get("voyage_event_marks", {}))
        self.pending_plan = False
        if state.get("pending_forecast") and ctx is not None:
            # The snapshot caught a request in flight inside the (now gone)
            # node's forecast service: re-pool it from the restored window.
            self._request_forecast(ctx)
        if (
            state.get("pending_plan")
            and ctx is not None
            and self.voyage is not None
            and self.last_message is not None
        ):
            # Same for a replan caught inside the dead node's route
            # optimizer: re-pool it from the restored last fix. The replan
            # anchor is the fix's stream time, so the reissued plan is
            # identical to the one the crash swallowed.
            self._request_plan(self.last_message, ctx)

    # -- handlers -----------------------------------------------------------------

    def _on_position(self, msg: PositionIngested, ctx: ActorContext) -> None:
        wiring = self.wiring
        report = msg.message
        if report.t - self.last_kept_t < wiring.config.downsample_s:
            return  # aggregated away by the 30-second downsampling rule
        if len(self.history) and report.t <= self.history.last_t:
            return  # stale duplicate from overlapping receivers
        self.last_kept_t = report.t
        self.last_message = report
        self.history.append(report.t, report.lat, report.lon, report.sog, report.cog)
        self.kept_fixes += 1

        # Proximity: this position goes to its cell actor.
        prox_cell = latlng_to_cell(report.lat, report.lon, PROXIMITY_RESOLUTION)
        wiring.cell_router.tell(
            prox_cell,
            CellObservation(
                cell=prox_cell, mmsi=self.mmsi, t=report.t, lat=report.lat, lon=report.lon
            ),
            sender=ctx.self_ref,
        )

        # Voyage optimization: divergence watch + rolling-horizon replan.
        if self.voyage is not None:
            self._on_voyage_fix(report, ctx)

        # Forecasting: run the shared model once enough history exists —
        # a padded short window when the forecaster supports padding, the
        # full window otherwise.
        threshold = MIN_FORECAST_FIXES if wiring.supports_padding else wiring.forecaster_min_history
        if len(self.history) >= threshold and self.kept_fixes % wiring.config.forecast_every_n == 0:
            if wiring.forecast_service is not None:
                self._request_forecast(ctx)
            else:
                self._forecast_and_share(ctx)
        if self.pending_forecast:
            return  # the state update rides on the ForecastReady reply
        self._push_state_update(report.t, ctx)

    def _on_forecast_ready(self, msg: ForecastReady, ctx: ActorContext) -> None:
        # The service already fanned the forecast out to the collision
        # cells (in submission order, which per-vessel mailboxes could not
        # guarantee); here only the twin's own state catches up.
        self.pending_forecast = False
        if msg.forecast is not None:
            self.latest_forecast = msg.forecast
        if self.last_message is not None:
            self._push_state_update(self.last_message.t, ctx)

    def _push_state_update(self, t: float, ctx: ActorContext) -> None:
        report = self.last_message
        self.wiring.writer_ref.tell(
            VesselStateUpdate(
                mmsi=self.mmsi,
                t=t,
                lat=report.lat,
                lon=report.lon,
                sog=report.sog,
                cog=report.cog,
                forecast=self.latest_forecast,
                event_flags=tuple(self.event_flags),
            ),
            sender=ctx.self_ref,
        )

    # -- voyage optimization --------------------------------------------------------

    def _on_voyage_assigned(self, msg: VoyageAssigned) -> None:
        speed = msg.base_speed_kn if msg.base_speed_kn is not None else VOYAGE_BASE_SPEED_KN
        self.voyage = {
            "waypoints": msg.waypoints,
            "deadline_t": msg.deadline_t,
            "base_speed_kn": speed,
        }
        self.voyage_plan = None
        self.last_replan_t = float("-inf")
        self.pending_plan = False

    def _on_voyage_fix(self, report, ctx: ActorContext) -> None:
        config = self.wiring.config
        plan = self.voyage_plan
        if plan is not None:
            off_track = self._cross_track_m(report.lat, report.lon, plan)
            if off_track > config.voyage_divergence_m:
                from repro.events.voyage import RouteDivergenceEvent

                self._emit_voyage_event(
                    "route_divergence",
                    RouteDivergenceEvent(
                        mmsi=self.mmsi,
                        t=report.t,
                        cross_track_m=off_track,
                        threshold_m=config.voyage_divergence_m,
                    ),
                    report.t,
                    ctx,
                )
        # Bucket-quantised trigger: replan when stream time crosses a
        # multiple of the cadence — a pure function of the fix stream, so
        # the plan sequence survives crashes and migrations unchanged.
        cadence = config.voyage_replan_cadence_s
        bucket = int(report.t // cadence)
        crossed = self.last_replan_t == float("-inf") or bucket > int(self.last_replan_t // cadence)
        if crossed and not self.pending_plan:
            self._request_plan(report, ctx)

    def _request_plan(self, report, ctx: ActorContext) -> None:
        from repro.models.voyage import Waypoint

        voyage = self.voyage
        self.pending_plan = True
        self.last_replan_t = report.t
        self.wiring.route_optimizer.submit(
            self.mmsi,
            Waypoint(report.lat, report.lon),
            tuple(Waypoint(lat, lon) for lat, lon in voyage["waypoints"]),
            voyage["deadline_t"],
            voyage["base_speed_kn"],
            sample_t=report.t,
            ctx=ctx,
        )

    def _on_plan_ready(self, msg: PlanReady, ctx: ActorContext) -> None:
        self.pending_plan = False
        plan = msg.plan
        if plan is None:
            return
        self.voyage_plan = plan
        if plan.diverted:
            from repro.events.voyage import StormAvoidanceEvent

            self._emit_voyage_event(
                "storm_avoidance",
                StormAvoidanceEvent(
                    mmsi=self.mmsi,
                    t=plan.planned_t,
                    issued_t=plan.issued_t,
                    legs_diverted=sum(1 for leg in plan.legs if leg.diverted),
                    planned_fuel_kg=plan.fuel_kg,
                ),
                plan.planned_t,
                ctx,
            )
        if plan.eta_slack_s < VOYAGE_ETA_BREACH_S:
            from repro.events.voyage import EtaBreachEvent

            self._emit_voyage_event(
                "eta_breach",
                EtaBreachEvent(
                    mmsi=self.mmsi,
                    t=plan.planned_t,
                    eta_t=plan.eta_t,
                    deadline_t=plan.deadline_t,
                    slack_s=plan.eta_slack_s,
                ),
                plan.planned_t,
                ctx,
            )

    def _emit_voyage_event(self, kind: str, payload, t: float, ctx: ActorContext) -> None:
        """Route one voyage event to the writer pool, at most once per
        stream instant per kind — the mark rides the checkpoint, so a
        recovered twin only re-emits events the snapshot had not covered
        (the campaign's set-based parity absorbs those replays)."""
        if t <= self.voyage_event_marks.get(kind, float("-inf")):
            return
        self.voyage_event_marks[kind] = t
        self.event_flags.append(f"{kind}@{t:.0f}")
        self.wiring.writer_ref.tell(
            EventRecord(kind=kind, t=t, payload=payload), sender=ctx.self_ref
        )

    @staticmethod
    def _cross_track_m(lat: float, lon: float, plan) -> float:
        """Lower bound on the distance from a fix to the planned track:
        the minimum over segments of min(|cross-track|, distance to
        either endpoint). A lower bound can only *under*-report
        divergence — never a false alarm from the great-circle extension
        of a short segment passing near the fix."""
        from repro.geo.geodesy import cross_track_distance_m, haversine_m

        best = float("inf")
        for leg in plan.legs:
            for a, b in zip(leg.path, leg.path[1:]):
                d = abs(cross_track_distance_m(lat, lon, a.lat, a.lon, b.lat, b.lon))
                d = min(d, haversine_m(lat, lon, a.lat, a.lon), haversine_m(lat, lon, b.lat, b.lon))
                if d < best:
                    best = d
        return best

    # -- forecasting ---------------------------------------------------------------

    def _window_row(self):
        """The forecaster's displacement window from the ring's contiguous
        column views (``None`` for anchors-only forecasters)."""
        wiring = self.wiring
        if getattr(wiring.forecaster, "window_size", 0) == 0:
            return None
        ts, lats, lons = self.history.columns()
        pad = wiring.supports_padding and len(self.history) < wiring.forecaster_min_history
        return wiring.forecaster.make_window(ts, lats, lons, pad=pad)

    def _request_forecast(self, ctx: ActorContext) -> None:
        self.pending_forecast = True
        self.wiring.forecast_service.submit(
            self.mmsi, self._window_row(), self.history.last_position(), ctx
        )

    def _forecast_and_share(self, ctx: ActorContext) -> None:
        wiring = self.wiring
        history = self.history.positions()
        if wiring.supports_padding and len(history) < wiring.forecaster_min_history:
            forecast = wiring.forecaster.forecast(self.mmsi, history, pad=True)
        else:
            forecast = wiring.forecaster.forecast(self.mmsi, history)
        self.latest_forecast = forecast
        share_forecasts(wiring, [forecast], sender=ctx.self_ref)
