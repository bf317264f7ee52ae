"""Spatial state: proximity cell actors, collision cells and the flow actor.

"Two additional actor classes are defined on the spatial level utilizing
the H3 spatial index, a class for proximity event detection ... and a class
for collision forecasting ... These actors consume the combined output of
all vessel actors N and determine the state of their respective event
class. ... Based on the final state status, they communicate their state
back to the respective affected subset of vessel actors." (Section 3)

A proximity cell is one actor per cell. The collision cells of a node are
one table, :class:`CollisionCellRouter`, fed by the forecast fan-out: a
forecast shared with many cells is tested once against each forecast it
meets there. The cells keep no debounce state: every raw hit goes to the
one vessel actor that owns the pair, ``min(pair)``, which decides whether
it is a new encounter (see :mod:`repro.platform.vessel_actor`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.actors import Actor, ActorContext
from repro.events.collision import DenseTrack, densify, intersect_dense
from repro.events.proximity import ProximityDetector
from repro.events.vtff import IndirectVTFF
from repro.models.base import RouteForecast
from repro.platform.messages import (
    CellObservation,
    CollisionAlert,
    ForecastBatch,
    ProximityAlert,
    PruneTick,
    RestoreState,
)

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring


class ProximityCellActor(Actor):
    """One H3 cell's proximity-detection state."""

    def __init__(self, cell: int, wiring: "PlatformWiring") -> None:
        self.cell = cell
        self.wiring = wiring
        # 500 m: the detector's default distance threshold.
        self.detector = ProximityDetector()

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, CellObservation):
            for event in self.detector.observe(message.mmsi, message.t, message.lat, message.lon):
                self.wiring.vessel_router.tell(event.pair[0], ProximityAlert(event=event))
        elif isinstance(message, PruneTick):
            self.detector.prune(message.now)
        elif isinstance(message, RestoreState):
            self.restore_state(message.state)

    def export_state(self) -> dict:
        return {"detector": self.detector.export_state()}

    def restore_state(self, state: dict) -> None:
        """Adopt checkpointed detection state only while still fresh — a
        detector that has already observed positions (rebuilt from the
        replayed suffix) holds newer last-seen entries and keeps them."""
        if self.detector._last_seen:
            return
        self.detector.restore_state(state["detector"])


class CollisionCellRouter:
    """Every local collision cell, in one table.

    ``cells`` maps a cell to its members: a bare :class:`RouteForecast` while
    one vessel occupies it (most cells of a dilated fan-out never see a
    second), else a dict ``mmsi -> (forecast, densified track)`` in
    first-arrival order, each MMSI holding its latest forecast. The cells are
    keyed, sharded and checkpointed entities like any other; they only have
    no actor, so a share costs no envelope per cell. Alerts go to the pair's
    owner vessel, as every hit does.
    """

    def __init__(self, wiring: "PlatformWiring") -> None:
        self._wiring = wiring
        self.cells: dict[Any, Any] = {}
        #: Table mutations run on the thread that pumps the node; the lock
        #: keeps the table consistent for a caller on any other thread.
        self._lock = threading.Lock()
        #: Newcomer-member tests run, one per distinct pair per share.
        self.pair_tests = 0

    def share_forecast(self, cells, forecast: RouteForecast) -> None:
        """Share one forecast with ``cells``: walk them in iteration order,
        and each cell's members in insertion order, testing the newcomer
        once against each distinct member forecast (by identity) of another
        MMSI. A pair meeting in k cells is one test and at most one alert.
        The newcomer is densified once, and only if it meets anyone."""
        mmsi = forecast.mmsi
        track = None
        # id(member forecast) -> its track, for the members already met.
        met: dict[int, DenseTrack] = {}
        hits = []
        with self._lock:
            table = self.cells
            for cell in cells:
                members = table.get(cell)
                if members is None:
                    table[cell] = forecast
                    continue
                if not isinstance(members, dict):
                    if members.mmsi == mmsi:
                        table[cell] = forecast
                        continue
                    held = met.get(id(members))
                    held = densify(members) if held is None else held
                    members = table[cell] = {members.mmsi: (members, held)}
                if track is None:
                    track = densify(forecast)
                for other_mmsi, (other, other_track) in members.items():
                    if other_mmsi == mmsi or id(other) in met:
                        continue
                    met[id(other)] = other_track
                    self.pair_tests += 1
                    # Default thresholds: 2 minutes, 500 m (Section 5.2).
                    hit = intersect_dense(forecast, track, other, other_track)
                    if hit is not None:
                        hits.append(hit)
                members[mmsi] = (forecast, track)
        for hit in hits:
            self._wiring.vessel_router.tell(hit.pair[0], CollisionAlert(event=hit))

    def prune(self, now: float) -> None:
        """Drop members whose anchor is older than ``event_debounce_s``; a
        cell left with one member holds it bare again, an empty one goes."""
        max_age = self._wiring.config.event_debounce_s
        # Only the changed cells are collected: the table can hold a
        # hundred thousand cells, and a copy of it would set peak memory.
        changed = {}
        with self._lock:
            for cell, members in self.cells.items():
                if not isinstance(members, dict):
                    if now - members.anchor.t > max_age:
                        changed[cell] = None
                    continue
                fresh = {
                    m: kept for m, kept in members.items() if now - kept[0].anchor.t <= max_age
                }
                if len(fresh) == len(members):
                    continue
                if len(fresh) > 1:
                    changed[cell] = fresh
                elif fresh:
                    ((changed[cell], _),) = fresh.values()
                else:
                    changed[cell] = None
            for cell, members in changed.items():
                if members is None:
                    del self.cells[cell]
                else:
                    self.cells[cell] = members

    def tell(self, key: Any, message: Any) -> None:
        """A collision cell's only message is :class:`RestoreState`: it is
        adopted into an absent cell only. A cell present already was rebuilt
        from replayed forecasts, which are newer."""
        if not isinstance(message, RestoreState):
            return
        forecasts = list(message.state["forecasts"].values())
        with self._lock:
            if key in self.cells or not forecasts:
                return
            if len(forecasts) == 1:
                self.cells[key] = forecasts[0]
            else:
                self.cells[key] = {fc.mmsi: (fc, densify(fc)) for fc in forecasts}

    def cell_state(self, key: Any) -> dict | None:
        """Checkpoint and handoff view of one cell, ``{"forecasts": {mmsi:
        forecast}}`` in arrival order (``None``: no such cell)."""
        members = self.cells.get(key)
        if members is None:
            return None
        if isinstance(members, dict):
            return {"forecasts": {m: forecast for m, (forecast, _) in members.items()}}
        return {"forecasts": {members.mmsi: members}}

    def forget(self, key: Any) -> bool:
        with self._lock:
            return self.cells.pop(key, None) is not None

    def known_keys(self) -> list[Any]:
        return list(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, key: Any) -> bool:
        return key in self.cells


class FlowActor(Actor):
    """The traffic-flow aggregation actor (indirect VTFF, Section 5.1)."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self.wiring = wiring
        self.vtff = IndirectVTFF()

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, ForecastBatch):
            self.vtff.submit(*message.forecasts)
        elif message == "snapshot":
            ctx.reply(self.vtff)
