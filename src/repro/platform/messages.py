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
class ForecastBatch:
    """Forecast fan-out -> flow actor: one flush's forecasts, in row order."""

    forecasts: tuple[RouteForecast, ...]


@dataclass(frozen=True)
class ForecastSharedBatch:
    """Forecast fan-out -> remote node: one forecast touching many cells.

    The fan-out of one forecast routinely hits a dozen-plus collision
    cells; cells owned by the same remote node travel in a single wire
    envelope, which the receiving node's router hands to its collision-cell
    table in one call (re-routing cells whose shard moved in flight).
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
    """Proximity cell -> the pair's owner vessel actor (``min(pair)``): one
    raw hit. The owner forwards an accepted alert to ``pair[1]``."""

    event: ProximityPairEvent


@dataclass(frozen=True)
class CollisionAlert:
    """Collision cells -> the pair's owner vessel actor (``min(pair)``):
    one raw hit. The owner forwards an accepted alert to ``pair[1]``."""

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
    """Writer actor input: a loggable platform event. Encounters come from
    their pair's owner vessel actor, once per accepted identity; voyage
    events from their vessel actor; switch-offs from ingestion."""

    kind: str  #: "proximity" | "collision" | "switchoff" | a voyage kind
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
    base_speed_kn: float | None = None  #: None: the config default


@dataclass(frozen=True)
class PlanReady:
    """Route optimizer -> vessel actor: the pooled planning batch holding
    this vessel's replan request was executed; adopt the plan and emit
    whatever voyage events it implies."""

    plan: Any  #: a :class:`repro.models.voyage.VoyagePlan`
    t_submitted: float = 0.0  #: virtual time the request was pooled at


@dataclass(frozen=True)
class PruneTick:
    """Housekeeping -> proximity cell actors: periodic memory pruning."""

    now: float


@dataclass(frozen=True)
class RestoreState:
    """Recovery or a live handoff -> entity: adopt exported state.

    Routed through the normal sharded routers after a node restart or a
    shard move, so whichever node now owns the entity receives its state.
    Entities adopt conservatively (only when the snapshot is newer than
    what they already hold) — replayed stream suffixes may have rebuilt
    fresher state first.
    """

    entity: str  #: "vessel" | "cell" | "collision"
    key: Any  #: the router key (mmsi or H3 cell)
    state: dict
    #: A live handoff's state transfer, not a checkpoint: the sending node
    #: keeps the records it wrote, so the state does not vouch for them.
    handoff: bool = False
