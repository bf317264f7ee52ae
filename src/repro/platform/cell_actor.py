"""Spatial state: the proximity and collision cell tables and the flow actor.

"Two additional actor classes are defined on the spatial level utilizing
the H3 spatial index, a class for proximity event detection ... and a class
for collision forecasting ... These actors consume the combined output of
all vessel actors N and determine the state of their respective event
class. ... Based on the final state status, they communicate their state
back to the respective affected subset of vessel actors." (Section 3)

Both classes are per-node tables here, not one actor per cell: a cell is
a keyed, sharded and checkpointed entity whose work is a method call. A
proximity actor per cell cost one of the four envelopes of every kept fix
and one actor per visited cell, never freed (11.8k after 24k fixes on the
fleet benchmark). The proximity cells of a node are
:class:`ProximityCellTable`, fed one fix at a time by the vessel actors (a
remote fix when its frame arrives); the collision cells are
:class:`CollisionCellRouter`, fed by the forecast fan-out: a forecast
shared with many cells is tested once against each forecast it meets
there, and the tests of a whole flush run as one array pass. The cells
keep no debounce state: every raw hit goes to the one vessel actor that
owns the pair, ``min(pair)``, which decides whether it is a new encounter
(see :mod:`repro.platform.vessel_actor`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.actors import Actor, ActorContext
from repro.events.collision import densify_many, intersect_pairs
from repro.events.proximity import ProximityDetector
from repro.events.vtff import IndirectVTFF
from repro.models.base import RouteForecast
from repro.platform.messages import (
    CellObservation,
    CollisionAlert,
    ForecastBatch,
    ProximityAlert,
    RestoreState,
)
from repro.telemetry.trace import current_trace

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring


class _CellTable:
    """The keyed surface a cell table shares with
    :class:`~repro.actors.router.KeyRouter`: ``cells`` maps a cell to its
    state. Table mutations run on the thread that pumps the node; the lock
    keeps the table consistent for a caller on any other thread."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self._wiring = wiring
        self.cells: dict[Any, Any] = {}
        self._lock = threading.Lock()

    def forget(self, key: Any) -> bool:
        with self._lock:
            return self.cells.pop(key, None) is not None

    def known_keys(self) -> list[Any]:
        return list(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, key: Any) -> bool:
        return key in self.cells


class ProximityCellTable(_CellTable):
    """Every local proximity cell, in one table: ``cells`` maps a cell to
    its :class:`ProximityDetector` (500 m, 120 s). A cell exists while its
    detector tracks a vessel; :meth:`prune` drops the ones it empties."""

    def tell(self, key: Any, message: Any) -> None:
        """Observe a :class:`CellObservation` and send each hit to the
        pair's owner vessel, or adopt a :class:`RestoreState` into an
        absent or empty cell only: a cell that has observed positions was
        rebuilt from the replayed suffix and holds newer entries."""
        if type(message) is CellObservation:
            telemetry = self._wiring.system.telemetry
            trace_id = current_trace() if telemetry is not None else None
            t0 = telemetry.clock() if trace_id is not None else 0.0
            with self._lock:
                detector = self.cells.get(key)
                if detector is None:
                    detector = self.cells[key] = ProximityDetector()
                hits = detector.observe(message.mmsi, message.t, message.lat, message.lon)
            if trace_id is not None:
                # The event hop of the trace; a table has no queue delay.
                telemetry.traces.record(trace_id, "cell", proc_s=telemetry.clock() - t0)
            for hit in hits:
                self._wiring.vessel_router.tell(hit.pair[0], ProximityAlert(event=hit))
        elif type(message) is RestoreState:
            state = message.state["detector"]
            with self._lock:
                # The table keeps no empty cell, so absent means empty too.
                if state["last_seen"] and key not in self.cells:
                    detector = self.cells[key] = ProximityDetector()
                    detector.restore_state(state)

    def cell_state(self, key: Any) -> dict | None:
        """Checkpoint and handoff view of one cell, ``{"detector": ...}``
        (``None``: no such cell)."""
        detector = self.cells.get(key)
        return None if detector is None else {"detector": detector.export_state()}

    def prune(self, now: float) -> None:
        """Drop observations older than the detectors' window, and every
        cell left empty (the memory bound)."""
        with self._lock:
            for detector in self.cells.values():
                detector.prune(now)
            empty = [cell for cell, detector in self.cells.items() if not detector.tracked_vessels]
            for cell in empty:
                del self.cells[cell]


def _entry(forecast: RouteForecast, track=None) -> list:
    """A collision-cell member: the forecast, its densified track (``None``
    until densified) and its identity ``(mmsi, anchor time)``."""
    return [forecast, track, (forecast.mmsi, forecast.anchor.t)]


class CollisionCellRouter(_CellTable):
    """Every local collision cell, in one table.

    ``cells`` maps a cell to its members: a bare :class:`RouteForecast` while
    one vessel occupies it (most cells of a dilated fan-out never see a
    second), else a dict ``mmsi -> entry`` (:func:`_entry`) in first-arrival
    order, each MMSI holding its latest forecast. The cells are keyed,
    sharded and checkpointed entities like any other; they only have no
    actor, so a share costs no envelope per cell. Alerts go to the pair's
    owner vessel, as every hit does.
    """

    def __init__(self, wiring: "PlatformWiring") -> None:
        super().__init__(wiring)
        #: Newcomer-member tests run, one per distinct pair per share,
        #: counted as each row's results are emitted.
        self.pair_tests = 0

    def share_forecast(self, cells, forecast: RouteForecast) -> None:
        """Share one forecast with ``cells``: :meth:`share_rows` of one row."""
        self.share_rows([(cells, forecast)])(0)

    def share_rows(self, rows) -> Callable[[int], None]:
        """Share a flush's rows, an iterable of ``(cells, forecast)`` read
        once in order, and test every pair they make in one
        :func:`intersect_pairs` call. Returns
        ``emit(k)``, which counts row ``k``'s pair tests and sends its alerts;
        the caller emits the rows in order, so every alert leaves when it
        did while each row was tested as it was shared.

        The walk is row by row: each row's cells in iteration order, and each
        cell's members in insertion order, pairing the newcomer once with
        each distinct member forecast of another MMSI, a forecast being its
        ``(mmsi, anchor time)``. A cell the newcomer finds empty, or holding
        the own forecast it met last, costs one lookup and one identity test.
        A pair meeting in k cells is one test and at most one alert, also
        when the cells were restored separately. A member is an entry
        ``[forecast, track, (mmsi, anchor time)]``, shared by every cell it
        joins in the flush; the forecasts that meet anyone are densified
        after the walk, in one array pass."""
        pairs, owners, k = [], [], -1
        # Entries whose track is still to be densified.
        pending: list[list] = []
        with self._lock:
            table = self.cells
            get = table.get
            for k, (cells, forecast) in enumerate(rows):
                mmsi = forecast.mmsi
                # The cells the newcomer finds empty, or holding the forecast
                # of its own met last, take it on one identity test each.
                own = entry = None
                for cell in cells:
                    members = get(cell, own)
                    if members is own:
                        table[cell] = forecast
                        continue
                    if members.__class__ is not dict:
                        if members.mmsi == mmsi:
                            own = members
                            table[cell] = forecast
                            continue
                        if entry is None:
                            entry, seen = _entry(forecast), {}
                            pending.append(entry)
                        other = _entry(members)
                        held = seen.get(other[2])
                        if held is not None and held[0] is members:
                            other = held
                        else:
                            pending.append(other)
                        members = table[cell] = {members.mmsi: other}
                    elif entry is None:
                        entry, seen = _entry(forecast), {}
                        pending.append(entry)
                    for other_mmsi, other in members.items():
                        if other_mmsi == mmsi or other[2] in seen:
                            continue
                        seen[other[2]] = other
                        pairs.append((entry, other))
                        owners.append(k)
                    members[mmsi] = entry
        tests = [0] * (k + 1)
        alerts: list[list] = [[] for _ in tests]
        # A flush that met no one (most received one-row shares) tests nothing.
        if pairs:
            for entry, track in zip(pending, densify_many([entry[0] for entry in pending])):
                entry[1] = track
            # Default thresholds: 2 minutes, 500 m (Section 5.2).
            tested = intersect_pairs([(a[0], a[1], b[0], b[1]) for a, b in pairs])
            for k, hit in zip(owners, tested):
                tests[k] += 1
                if hit is not None:
                    alerts[k].append(hit)

        def emit(k: int) -> None:
            self.pair_tests += tests[k]
            for hit in alerts[k]:
                self._wiring.vessel_router.tell(hit.pair[0], CollisionAlert(event=hit))

        return emit

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
                    ((changed[cell], *_),) = fresh.values()
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
                tracks = densify_many(forecasts)
                self.cells[key] = {
                    fc.mmsi: _entry(fc, track) for fc, track in zip(forecasts, tracks)
                }

    def cell_state(self, key: Any) -> dict | None:
        """Checkpoint and handoff view of one cell, ``{"forecasts": {mmsi:
        forecast}}`` in arrival order (``None``: no such cell)."""
        members = self.cells.get(key)
        if members is None:
            return None
        if isinstance(members, dict):
            return {"forecasts": {m: entry[0] for m, entry in members.items()}}
        return {"forecasts": {members.mmsi: members}}


class FlowActor(Actor):
    """The traffic-flow aggregation actor (indirect VTFF, Section 5.1)."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self.wiring = wiring
        self.vtff = IndirectVTFF()

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, ForecastBatch):
            self.vtff.submit(*message.forecasts)
        elif message == "snapshot":
            ctx.reply(self.vtff.copy())
