"""Spatial actors: proximity cells, collision cells and the flow actor.

"Two additional actor classes are defined on the spatial level utilizing
the H3 spatial index, a class for proximity event detection ... and a class
for collision forecasting ... These actors consume the combined output of
all vessel actors N and determine the state of their respective event
class. ... Based on the final state status, they communicate their state
back to the respective affected subset of vessel actors." (Section 3)

The cells keep no debounce state: every raw hit goes to the one vessel
actor that owns the pair, ``min(pair)``, which decides whether it is a new
encounter (see :mod:`repro.platform.vessel_actor`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.actors import Actor, ActorContext
from repro.actors.router import KeyRouter
from repro.events.collision import trajectories_intersect
from repro.events.proximity import ProximityDetector
from repro.events.vtff import IndirectVTFF
from repro.models.base import RouteForecast
from repro.platform.messages import (
    CellObservation,
    CollisionAlert,
    ForecastBatch,
    ForecastShared,
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


class CollisionCellRouter(KeyRouter):
    """Collision-cell routing with a single-occupant stash.

    A fleet workload fans every forecast out to ~50 dilated cells, yet the
    vast majority of those cells only ever hold **one** vessel's forecast —
    no pairing can happen there, and the plain router would still spawn an
    actor per cell and pay a scheduled envelope per delivery. This router
    keeps the sole occupant's latest forecast in a dict (exactly the state
    the cell actor would hold: ``forecasts`` maps each MMSI to its latest
    forecast, so re-shares overwrite) and only materialises the real cell
    actor — replaying the stashed forecast first, preserving arrival order
    — when a *second* vessel touches the cell. Observable behaviour is
    identical; envelope and spawn counts drop by roughly the dilation
    factor.
    """

    def __init__(self, system, prefix: str, factory, wiring: "PlatformWiring") -> None:
        super().__init__(system, prefix, factory)
        self._wiring = wiring
        #: cell -> the sole occupant's latest forecast.
        self._solo: dict[Any, RouteForecast] = {}
        #: Stash mutations run on the thread that pumps the node; the lock
        #: keeps the stash consistent for a caller on any other thread.
        #: Reentrant because a share can materialise a cell through
        #: :meth:`route`.
        self._solo_lock = threading.RLock()
        self.stashed_tells = 0

    def route(self, key: Any):
        """Materialise the cell actor, replaying any stashed forecast so
        external ref access (handoff, tests, checkpoints) sees it."""
        with self._solo_lock:
            held = self._solo.pop(key, None)
            ref = super().route(key)
            if held is not None:
                ref.tell(ForecastShared(cell=key, forecast=held))
        return ref

    def share_forecast(self, cells, forecast: RouteForecast) -> None:
        """Share one forecast with ``cells``, in their iteration order — the
        one place the single-occupant rule lives. A spawned cell actor gets
        a :class:`ForecastShared`; an unspawned cell stashes the forecast
        while this vessel is its only occupant; a second vessel spawns the
        actor, which receives the stashed forecast first."""
        mmsi = forecast.mmsi
        with self._solo_lock:
            for cell in cells:
                ref = self._refs.get(cell)
                if ref is None:
                    held = self._solo.get(cell)
                    if held is None or held.mmsi == mmsi:
                        self._solo[cell] = forecast
                        self.stashed_tells += 1
                        continue
                    ref = self.route(cell)
                ref.tell(ForecastShared(cell=cell, forecast=forecast))

    def tell(self, key: Any, message: Any) -> None:
        if key not in self._refs:
            if isinstance(message, PruneTick):
                with self._solo_lock:
                    held = self._solo.get(key)
                    if held is not None:
                        if message.now - held.anchor.t > self._wiring.config.event_debounce_s:
                            del self._solo[key]
                        return
            elif isinstance(message, RestoreState):
                with self._solo_lock:
                    if key in self._solo:
                        return  # live (replayed) forecast is newer; keep it
                    forecasts = message.state.get("forecasts", {})
                    if len(forecasts) <= 1:
                        for forecast in forecasts.values():
                            self._solo[key] = forecast
                        return
                # Multi-occupant checkpoint state: a real actor holds it.
        super().tell(key, message)

    def forget(self, key: Any) -> bool:
        with self._solo_lock:
            stashed = self._solo.pop(key, None) is not None
        return super().forget(key) or stashed

    def stashed_state(self, key: Any) -> dict | None:
        """Checkpoint view of a stashed cell (same shape as
        :meth:`CollisionCellActor.export_state`)."""
        held = self._solo.get(key)
        if held is None:
            return None
        return {"forecasts": {held.mmsi: held}}

    def known_keys(self) -> list[Any]:
        return list(self._refs) + [k for k in self._solo if k not in self._refs]

    def __len__(self) -> int:
        return len(self.known_keys())

    def __contains__(self, key: Any) -> bool:
        return key in self._refs or key in self._solo


class CollisionCellActor(Actor):
    """One H3 cell's collision-forecasting state.

    Holds the forecast trajectories currently touching the cell and checks
    each newcomer pairwise (temporal intersection first, then spatial), as
    Figure 5 illustrates.
    """

    def __init__(self, cell: int, wiring: "PlatformWiring") -> None:
        self.cell = cell
        self.wiring = wiring
        self.forecasts: dict[int, object] = {}

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, ForecastShared):
            self._on_forecast(message)
        elif isinstance(message, PruneTick):
            stale = [
                m
                for m, fc in self.forecasts.items()
                if message.now - fc.anchor.t > self.wiring.config.event_debounce_s
            ]
            for mmsi in stale:
                del self.forecasts[mmsi]
        elif isinstance(message, RestoreState):
            self.restore_state(message.state)

    def export_state(self) -> dict:
        return {"forecasts": dict(self.forecasts)}

    def restore_state(self, state: dict) -> None:
        if self.forecasts:
            return  # already rebuilt from replayed forecasts; keep it
        self.forecasts = dict(state["forecasts"])

    def _on_forecast(self, message: ForecastShared) -> None:
        forecast = message.forecast
        for other_mmsi, other_fc in self.forecasts.items():
            if other_mmsi == forecast.mmsi:
                continue
            # Default thresholds: 2 minutes, 500 m (Section 5.2).
            hit = trajectories_intersect(forecast, other_fc)
            if hit is not None:
                self.wiring.vessel_router.tell(hit.pair[0], CollisionAlert(event=hit))
        self.forecasts[forecast.mmsi] = forecast


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
