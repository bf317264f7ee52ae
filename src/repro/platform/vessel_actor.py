"""The per-vessel actor.

"The core partitioning functionality generates multiple actors N, with each
one corresponding to a specific vessel as it is defined by its unique MMSI"
(Section 3). Each vessel actor:

* keeps the vessel's recent downsampled track (the S-VRF input window) in a
  preallocated :class:`~repro.platform.history.HistoryRing`,
* requests a forecast from the shared model on each kept fix through the
  node's pooled :class:`~repro.platform.forecast_service.ForecastService`,
* fans its position out to the proximity cell actor of its H3 cell,
* has its forecast fanned out (:func:`share_forecasts`) to every collision
  cell the trajectory (dilated by one neighbour ring) touches, and to the
  traffic-flow actor,
* pushes its state snapshot to the writer actor,
* owns the encounters of each pair whose smaller MMSI it is: the spatial
  actors "communicate their state back to the respective affected subset
  of vessel actors" by sending every raw hit to the owner, which records
  a hit only if its ``(kind, pair, t // event_debounce_s)`` identity is
  new and forwards it to the partner; both flag it in ``event_flags``.

The state update of a forecast-triggering fix is deferred until the
:class:`~repro.platform.messages.ForecastReady` reply, so the writer still
observes every forecast exactly once; the in-flight marker travels through
``export_state``/``restore_state`` so a checkpoint taken mid-linger
re-issues the request after recovery instead of dropping it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

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

#: Hex resolution of the proximity cell actors and of the collision cells
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

#: Rings of neighbouring cells that receive forecast positions ("the
#: respective cell ... and each n+1 nearest cell", Section 5.2).
COLLISION_NEIGHBOR_RINGS = 1

#: Base cell -> its dilated neighbourhood. ``grid_disk`` is a pure
#: function and vessels revisit the same cells constantly; memoising the
#: disk removes it from the forecast fan-out hot path. An entry holds
#: about 350 B, so the cap of 65,536 entries bounds the memo at about
#: 23 MB; the fleet benchmark fills about 14k entries. A clear only costs
#: recomputation: results stay bitwise.
_DISK_CACHE: dict[int, tuple[int, ...]] = {}
_DISK_CACHE_MAX = 1 << 16


def _disk(base: int) -> tuple[int, ...]:
    cells = _DISK_CACHE.get(base)
    if cells is None:
        if len(_DISK_CACHE) >= _DISK_CACHE_MAX:
            _DISK_CACHE.clear()
        cells = _DISK_CACHE[base] = tuple(grid_disk(base, COLLISION_NEIGHBOR_RINGS))
    return cells


def share_forecasts(wiring: "PlatformWiring", forecasts: list, after_row=None) -> int:
    """Fan a flush's forecasts out in row order — row ``i`` to every
    collision cell its trajectory (dilated by the neighbour rings) touches,
    then ``after_row(i)`` — and to the flow actor in one :class:`ForecastBatch`.
    ``None`` rows share nothing. One :func:`latlng_to_cells` call finds every
    row's cells; a row with a position off the globe (an unclamped model
    output) is set to ``None`` first, like a row the forecaster raised on.
    Returns how many rows that dropped."""
    rows = [i for i, forecast in enumerate(forecasts) if forecast is not None]
    lats = np.concatenate([forecasts[i].lats for i in rows] or [np.empty(0)])
    lons = np.concatenate([forecasts[i].lons for i in rows] or [np.empty(0)])
    off_globe = ~((lats >= -90.0) & (lats <= 90.0) & np.isfinite(lons))  # the kernel's checks
    bad: list[int] = []
    if off_globe.any():
        owners = np.repeat(rows, [len(forecasts[i].lats) for i in rows])
        bad = np.unique(owners[off_globe]).tolist()
        kept = ~np.isin(owners, bad)
        lats, lons = lats[kept], lons[kept]
        for i in bad:
            forecasts[i] = None
    bases = iter(latlng_to_cells(lats, lons, COLLISION_RESOLUTION).tolist())
    router = wiring.collision_router
    for i, forecast in enumerate(forecasts):
        if forecast is not None:
            cells: set[int] = set()
            for _ in range(len(forecast.lats)):
                cells.update(_disk(next(bases)))
            router.share_forecast(cells, forecast)
        if after_row is not None:
            after_row(i)
    shared = tuple(forecast for forecast in forecasts if forecast is not None)
    if shared:
        wiring.flow_ref.tell(ForecastBatch(forecasts=shared))
    return len(bad)


class VesselActor(Actor):
    """Digital twin of one vessel."""

    def __init__(self, mmsi: int, wiring: "PlatformWiring") -> None:
        self.mmsi = mmsi
        self.wiring = wiring
        self.history = HistoryRing(max(wiring.forecaster.min_history, 1))
        self.kept_fixes = 0
        self.last_kept_t = float("-inf")
        self.last_message = None
        self.latest_forecast = None
        #: A forecast request is pooled in the forecast service and its
        #: state update deferred until the ForecastReady reply.
        self.pending_forecast = False
        self.event_flags: deque[str] = deque(maxlen=8)
        #: Identities ``(kind, pair, bucket)`` of the owned encounters
        #: already recorded, back to one bucket before the newest.
        self.event_marks: set[tuple] = set()
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
            self._on_position(message)
        elif isinstance(message, ForecastReady):
            self._on_forecast_ready(message)
        elif isinstance(message, VoyageAssigned):
            self._on_voyage_assigned(message)
        elif isinstance(message, PlanReady):
            self._on_plan_ready(message)
        elif isinstance(message, ProximityAlert):
            self._on_alert(message, "proximity", message.event.t, message.event.t)
        elif isinstance(message, CollisionAlert):
            event = message.event
            self._on_alert(message, "collision", event.forecast_at, event.t_expected)
        elif isinstance(message, RestoreState):
            self.restore_state(message.state, handoff=message.handoff)
        # Unknown messages are ignored (actors are liberal receivers).

    # -- checkpointing -------------------------------------------------------------

    def export_state(self) -> dict:
        """Everything a freshly spawned twin needs to continue this
        vessel: the history window, downsampling cursor, event flags and
        encounter marks (a restored owner must not re-record an encounter),
        and the in-flight pending-forecast marker (a checkpoint taken
        mid-linger must re-issue the pooled request on recovery)."""
        return {
            "history": self.history.positions(),
            "kept_fixes": self.kept_fixes,
            "last_kept_t": self.last_kept_t,
            "last_message": self.last_message,
            "latest_forecast": self.latest_forecast,
            "pending_forecast": self.pending_forecast,
            "event_flags": list(self.event_flags),
            "event_marks": set(self.event_marks),
            # Voyage assignment and plan state ride the same snapshot:
            # assignments are not in the AIS stream, so replay alone can
            # never rebuild them — recovery MUST carry them across.
            "voyage": self.voyage,
            "voyage_plan": self.voyage_plan,
            "last_replan_t": self.last_replan_t,
            "pending_plan": self.pending_plan,
            "voyage_event_marks": dict(self.voyage_event_marks),
        }

    def restore_state(self, state: dict, handoff: bool = False) -> None:
        """Adopt checkpointed state iff it is *newer* than what this actor
        holds — a replayed stream suffix may already have rebuilt fresher
        state, which must win.

        A live ``handoff`` leaves the encounter marks behind. A mark vouches
        for a record in the store of the node that wrote it; that record
        stays on the old node, which may crash later and lose it, and the
        mark would then stop the new owner from recording the encounter
        again. So across a migration a recurring hit is recorded once more,
        on the new owner's node. A checkpoint restores marks together with
        the store snapshot that holds their records."""
        if state["last_kept_t"] <= self.last_kept_t:
            return
        self.history = HistoryRing.from_positions(
            state["history"], max(self.wiring.forecaster.min_history, 1)
        )
        self.kept_fixes = state["kept_fixes"]
        self.last_kept_t = state["last_kept_t"]
        self.last_message = state["last_message"]
        self.latest_forecast = state["latest_forecast"]
        self.event_flags = deque(state["event_flags"], maxlen=8)
        self.event_marks = set() if handoff else set(state["event_marks"])
        self.pending_forecast = False
        self.voyage = state.get("voyage")
        self.voyage_plan = state.get("voyage_plan")
        self.last_replan_t = state.get("last_replan_t", float("-inf"))
        self.voyage_event_marks = dict(state.get("voyage_event_marks", {}))
        self.pending_plan = False
        if state.get("pending_forecast"):
            # The snapshot caught a request in flight inside the (now gone)
            # node's forecast service: re-pool it from the restored window.
            self._request_forecast()
        if state.get("pending_plan") and self.voyage is not None and self.last_message is not None:
            # Same for a replan caught inside the dead node's route
            # optimizer: re-pool it from the restored last fix. The replan
            # anchor is the fix's stream time, so the reissued plan is
            # identical to the one the crash swallowed.
            self._request_plan(self.last_message)

    # -- handlers -----------------------------------------------------------------

    def _on_position(self, msg: PositionIngested) -> None:
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

        # Proximity: this position goes to its cell's detector (a method
        # call when the cell is local).
        prox_cell = latlng_to_cell(report.lat, report.lon, PROXIMITY_RESOLUTION)
        wiring.cell_router.tell(
            prox_cell,
            CellObservation(
                cell=prox_cell, mmsi=self.mmsi, t=report.t, lat=report.lat, lon=report.lon
            ),
        )

        # Voyage optimization: divergence watch + rolling-horizon replan.
        if self.voyage is not None:
            self._on_voyage_fix(report)

        # Forecasting: run the shared model once enough history exists —
        # a padded short window for a windowed forecaster, the full
        # history otherwise.
        forecaster = wiring.forecaster
        threshold = MIN_FORECAST_FIXES if forecaster.window_size else forecaster.min_history
        if len(self.history) >= threshold:
            self._request_forecast()
        if self.pending_forecast:
            return  # the state update rides on the ForecastReady reply
        self._push_state_update(report.t)

    def _on_forecast_ready(self, msg: ForecastReady) -> None:
        # The service already fanned the forecast out to the collision
        # cells (in submission order, which per-vessel mailboxes could not
        # guarantee); here only the twin's own state catches up.
        self.pending_forecast = False
        if msg.forecast is not None:
            self.latest_forecast = msg.forecast
        if self.last_message is not None:
            self._push_state_update(self.last_message.t)

    def _push_state_update(self, t: float) -> None:
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
        )

    def _on_alert(self, alert, kind: str, t: float, flag_t: float) -> None:
        """A cell's raw hit on a pair this vessel owns (``pair[0]``), or the
        owner's forward of an accepted one (``pair[1]``). The owner accepts
        a hit only if its identity is new, records it, and forwards it. A
        hit older than the marks window is dropped and counted: its
        identity's mark may be pruned already, so it could record twice."""
        pair = alert.event.pair
        if self.mmsi == pair[0]:
            bucket = int(t // self.wiring.config.event_debounce_s)
            if (kind, pair, bucket) in self.event_marks:
                return
            newest = max((mark[2] for mark in self.event_marks), default=bucket)
            if bucket < newest - 1:
                self.wiring.late_hits_dropped += 1
                return
            if bucket > newest:
                # Age bound: a newer bucket drops marks over one bucket older.
                self.event_marks = {mark for mark in self.event_marks if mark[2] >= bucket - 1}
            self.event_marks.add((kind, pair, bucket))
            self.wiring.writer_ref.tell(EventRecord(kind=kind, t=t, payload=alert.event))
            self.wiring.vessel_router.tell(pair[1], alert)
        self.event_flags.append(f"{kind}@{flag_t:.0f}")

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

    def _on_voyage_fix(self, report) -> None:
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
                )
        # Bucket-quantised trigger: replan when stream time crosses a
        # multiple of the cadence — a pure function of the fix stream, so
        # the plan sequence survives crashes and migrations unchanged.
        cadence = config.voyage_replan_cadence_s
        bucket = int(report.t // cadence)
        crossed = self.last_replan_t == float("-inf") or bucket > int(self.last_replan_t // cadence)
        if crossed and not self.pending_plan:
            self._request_plan(report)

    def _request_plan(self, report) -> None:
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
        )

    def _on_plan_ready(self, msg: PlanReady) -> None:
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
            )

    def _emit_voyage_event(self, kind: str, payload, t: float) -> None:
        """Route one voyage event to the writer, at most once per
        stream instant per kind — the mark rides the checkpoint, so a
        recovered twin only re-emits events the snapshot had not covered
        (the campaign's set-based parity absorbs those replays)."""
        if t <= self.voyage_event_marks.get(kind, float("-inf")):
            return
        self.voyage_event_marks[kind] = t
        self.event_flags.append(f"{kind}@{t:.0f}")
        self.wiring.writer_ref.tell(EventRecord(kind=kind, t=t, payload=payload))

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
        forecaster = self.wiring.forecaster
        if forecaster.window_size == 0:
            return None
        ts, lats, lons = self.history.columns()
        pad = len(self.history) < forecaster.min_history
        return forecaster.make_window(ts, lats, lons, pad=pad)

    def _request_forecast(self) -> None:
        self.pending_forecast = True
        self.wiring.forecast_service.submit(
            self.mmsi, self._window_row(), self.history.last_position()
        )
