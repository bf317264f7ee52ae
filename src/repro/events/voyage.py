"""Voyage-optimization event payloads.

Three event kinds the route optimizer emits through the same router →
writer → serving/warehouse path that proximity and collision events
travel (ISSUE: the paper's Section 7 weather outlook, made operational):

* ``storm_avoidance`` — a plan (initial or re-) dog-legged around rough
  forecast weather instead of sailing the direct track,
* ``eta_breach`` — the freshest plan's ETA eats into the deadline margin
  (slack below the configured threshold, possibly negative),
* ``route_divergence`` — the vessel's *actual* reported position has
  drifted further from the planned track than the divergence threshold —
  the plan and the ship disagree, and somebody should look.

Payloads are keyed by ``mmsi`` and carry ``t``; all fields are plain
floats/ints so the replication feed and the warehouse partitions
serialise them untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The event kinds the voyage subsystem emits, in router/topic order.
VOYAGE_EVENT_KINDS = ("storm_avoidance", "eta_breach", "route_divergence")


@dataclass(frozen=True)
class StormAvoidanceEvent:
    """A plan chose a weather dog-leg over the direct track."""

    mmsi: int
    t: float                 #: stream time of the plan that diverted
    issued_t: float          #: forecast product issue the plan used
    legs_diverted: int       #: how many legs dog-legged
    planned_fuel_kg: float   #: forecast fuel of the diverting plan


@dataclass(frozen=True)
class EtaBreachEvent:
    """The freshest plan's deadline margin fell below the threshold."""

    mmsi: int
    t: float
    eta_t: float
    deadline_t: float
    slack_s: float           #: ``deadline_t - eta_t`` (negative = late)


@dataclass(frozen=True)
class RouteDivergenceEvent:
    """A reported fix sits further off the planned track than allowed."""

    mmsi: int
    t: float
    cross_track_m: float     #: distance from fix to nearest planned leg
    threshold_m: float
