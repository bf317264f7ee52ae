"""Actor message vocabulary.

Every payload exchanged between platform actors is one of these immutable
types — the explicit message protocol that makes the actor topology of
Figure 2 (and the collision exchange of Figure 5) legible and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.ais.message import AISMessage
from repro.events.collision import CollisionForecast
from repro.events.proximity import ProximityPairEvent
from repro.models.base import RouteForecast


@dataclass(frozen=True)
class PositionIngested:
    """Ingestion -> vessel actor: one parsed AIS position report."""

    message: AISMessage


@dataclass(frozen=True)
class CellObservation:
    """Vessel actor -> cell actor: a position falling in the cell."""

    cell: int
    mmsi: int
    t: float
    lat: float
    lon: float


@dataclass(frozen=True)
class ForecastShared:
    """Forecast fan-out -> collision actor: a forecast touching the cell."""

    cell: int
    forecast: RouteForecast


@dataclass(frozen=True)
class ForecastBatch:
    """Forecast fan-out -> flow actor: one flush's forecasts, in row order."""

    forecasts: tuple[RouteForecast, ...]


@dataclass(frozen=True)
class ForecastSharedBatch:
    """Forecast fan-out -> remote node: one forecast touching many cells.

    The fan-out of one forecast routinely hits a dozen-plus collision
    cells; cells owned by the same remote node travel in a single wire
    envelope, which the receiving node's router hands to its collision
    stash in one call (re-routing cells whose shard moved in flight).
    """

    cells: tuple[int, ...]
    forecast: RouteForecast


@dataclass(frozen=True)
class ForecastReady:
    """Forecast service -> vessel actor: the pooled batch containing this
    vessel's request was executed; share and persist the result."""

    forecast: RouteForecast
    #: Virtual time at which the request entered the pending batch
    #: (drives the ``forecast_latency_s`` telemetry histogram).
    t_submitted: float = 0.0


@dataclass(frozen=True)
class ProximityAlert:
    """Cell actor -> vessel actors & writer: proximity event detected."""

    event: ProximityPairEvent


@dataclass(frozen=True)
class CollisionAlert:
    """Collision actor -> vessel actors & writer: collision forecast."""

    event: CollisionForecast


@dataclass(frozen=True)
class VesselStateUpdate:
    """Vessel actor -> writer actor: latest per-vessel state snapshot."""

    mmsi: int
    t: float
    lat: float
    lon: float
    sog: float
    cog: float
    forecast: RouteForecast | None
    event_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EventRecord:
    """Writer actor input: a loggable platform event."""

    kind: str          #: "proximity" | "collision" | "switchoff"
    t: float
    payload: Any


@dataclass(frozen=True)
class VoyageAssigned:
    """Operator -> vessel actor: sail these waypoints by this deadline.

    Waypoints travel as plain ``(lat, lon)`` tuples so the assignment
    crosses node boundaries without dragging model types over the wire.
    """

    mmsi: int
    waypoints: tuple[tuple[float, float], ...]
    deadline_t: float
    base_speed_kn: float | None = None   #: None: the config default


@dataclass(frozen=True)
class PlanReady:
    """Route optimizer -> vessel actor: the pooled planning batch holding
    this vessel's replan request was executed; adopt the plan and emit
    whatever voyage events it implies."""

    plan: Any                  #: a :class:`repro.models.voyage.VoyagePlan`
    t_submitted: float = 0.0   #: virtual time the request was pooled at


@dataclass(frozen=True)
class PruneTick:
    """Scheduler -> stateful actors: periodic memory housekeeping."""

    now: float


@dataclass(frozen=True)
class RestoreState:
    """Recovery -> entity actor: adopt checkpointed state.

    Routed through the normal sharded routers after a node restart, so
    whichever node now owns the entity receives its pre-crash state.
    Actors adopt conservatively (only when the snapshot is newer than what
    they already hold) — replayed stream suffixes may have rebuilt fresher
    state first.
    """

    entity: str                #: "vessel" | "cell" | "collision"
    key: Any                   #: the router key (mmsi or H3 cell)
    state: dict
