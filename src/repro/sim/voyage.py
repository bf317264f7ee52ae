"""Mid-voyage fault injection: replanning state must survive the cluster.

A voyage campaign (``tests/sim/test_voyage.py`` declares three) drives the
standard workload plus the voyage fleet (:func:`build_voyage_fleet`) —
three twins assigned routes that deterministically produce each voyage
event kind — through a cluster with voyage optimization armed, and proves
that crash/checkpoint-recovery and live shard migration are invisible to
the optimizer:

* **voyage event parity** — the faulty run's (kind, mmsi) voyage event
  set equals that of the fault-free oracle: one standalone platform
  assigned the same twins and fed the same chunks and closing fixes;
* **plan parity** — after a post-heal *closing fix* in a fresh replan
  bucket forces one final deterministic replan, every twin's plan
  fingerprint (bitwise routing decisions) equals the oracle's.

The fleet is margin-robust by construction, mirroring
:mod:`~repro.sim.workload`: the *diverge* twin is planned due east but
sails due north (cross-track grows ~3 km per chunk, far past the
threshold); the *breach* twin gets a deadline hours too tight for an
800 km route; the *storm* twin's waypoint is found by a deterministic
probe (:func:`find_storm_route`) that scans candidate routes with the
same :func:`~repro.models.voyage.plan_voyage` the platform pools until
one's departure plan dog-legs. Voyage assignments travel *outside* the
AIS stream, so replay alone can never rebuild them — exactly the state
the checkpoint/RestoreState and migration transfer paths must carry.

The scripts drive chunk 0 calm and quiesce at every boundary: plans only
land at process barriers, and the divergence watch needs a plan to
diverge from before any fault can interrupt it. Fault windows are
orderly: link faults (delays, dups, reordering) stay armed while the
stream flows, but recovery and migration themselves run quiesced — a
delayed ``ShardStateTransfer`` losing the race against the post-handoff
replay would silently drop voyage state behind an equal ``last_kept_t``,
which models an operator racing their own recovery, not a runtime fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ais.message import AISMessage
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.models.fuel import FuelModel
from repro.models.voyage import Waypoint, plan_voyage
from repro.platform.pipeline import WEATHER_DEGRADATION_TAU_S
from repro.platform.vessel_actor import VOYAGE_BASE_SPEED_KN
from repro.sim.campaign import Fleet, mmsis_owned_by
from repro.sim.invariants import (
    Violation,
    check_event_parity,
    collect_events,
    collect_final_plans,
    vessel_hosts,
)
from repro.sim.workload import _region_center
from repro.weather.forecast import ForecastingWeatherField

#: The worker every voyage twin is pinned to by mmsi choice, and so the
#: node a voyage script crashes or drains to interrupt optimizer state.
TARGET = "node-01"
SPACING_S = 60.0
REPLAN_CADENCE_S = 3_600.0
DIVERGENCE_M = 5_000.0
MAX_WIND_MPS = 26.0
#: Degrees of northward drift per chunk for the diverge twin (~3.3 km —
#: past the divergence threshold within two chunks).
DRIFT_DEG_PER_CHUNK = 0.03
#: The closing fixes land in this replan bucket — past every campaign
#: fix, so they trigger exactly one final deterministic replan.
CLOSING_BUCKET = 2
DIGEST = (
    "scenario",
    "seed",
    "events",
    "voyage_events",
    "plan_fingerprints",
    "counters",
    "violations",
    "replayed",
    "suffix_replayed",
)
HEADLINE = ("voyage_events={voyage_events}",)


@dataclass(frozen=True)
class VoyageTwin:
    """One voyage assignment plus the fix track that realises its role."""

    role: str  #: diverge | breach | storm
    #: The voyage event kind the role exists to produce.
    kind: str
    mmsi: int
    origin: tuple[float, float]
    waypoints: tuple[tuple[float, float], ...]
    deadline_t: float


#: Hand-picked first-try waypoints for the storm probe, fanning out
#: across the field's calibrated box — most seeds hit within the first
#: few; the probe falls back to a coarse grid (and alternate origins)
#: for the rest.
STORM_WAYPOINT_CANDIDATES: tuple[tuple[float, float], ...] = (
    (43.0, 11.0),
    (37.0, 11.0),
    (43.0, 21.0),
    (37.0, 21.0),
    (44.0, 16.0),
    (36.0, 16.0),
    (42.0, 9.0),
    (38.0, 9.0),
    (36.0, 20.0),
    (44.0, 12.0),
    (36.0, 12.0),
    (44.0, 20.0),
    (35.0, 8.0),
    (35.0, 18.0),
    (44.0, 8.0),
    (42.0, 20.0),
)

#: Candidate origins for the storm twin: row-3 region centres (lat 40),
#: skipping the regions the diverge (24) and breach (26) twins hold.
STORM_ORIGIN_REGIONS: tuple[int, ...] = (28, 29, 30, 31, 25, 27)


def _storm_waypoint_candidates(origin: tuple[float, float]):
    """The probe's scan order: the hand-picked fan first, then a coarse
    1-degree grid over the whole calibrated box (minus the origin's own
    neighbourhood)."""
    yield from STORM_WAYPOINT_CANDIDATES
    for lat10 in range(345, 445, 10):
        for lon10 in range(40, 210, 10):
            lat, lon = lat10 / 10.0, lon10 / 10.0
            if abs(lat - origin[0]) < 0.5 and abs(lon - origin[1]) < 0.5:
                continue
            yield (lat, lon)


#: (seed, probe parameters) -> (origin, waypoint); the probe costs up to
#: a few seconds on grid-fallback seeds and every campaign leg re-derives
#: the same fleet, so hits are shared.
_STORM_ROUTE_CACHE: dict[tuple, tuple[tuple[float, float], tuple[float, float]]] = {}


def find_storm_route(
    weather: ForecastingWeatherField,
    seed: int,
    sample_t: float,
    deadline_s: float,
    base_speed_kn: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The first (origin, waypoint) pair whose departure plan dog-legs.

    Runs the same :func:`~repro.models.voyage.plan_voyage` the platform's
    optimizer pools, at the exact fix time the twin will submit with — so
    a hit here *guarantees* the platform emits ``storm_avoidance`` for
    this seed. Pure scan over region-centre origins and a waypoint fan,
    no RNG; verified to hit for every nightly seed (0..24)."""
    key = (
        seed,
        weather.update_cycle_s,
        weather.degradation_tau_s,
        weather.truth.max_wind_mps,
        sample_t,
        deadline_s,
        base_speed_kn,
    )
    cached = _STORM_ROUTE_CACHE.get(key)
    if cached is not None:
        return cached
    fuel = FuelModel()
    for region in STORM_ORIGIN_REGIONS:
        origin = _region_center(region)
        for lat, lon in _storm_waypoint_candidates(origin):
            plan = plan_voyage(
                weather,
                fuel,
                Waypoint(*origin),
                (Waypoint(lat, lon),),
                sample_t=sample_t,
                depart_t=sample_t,
                deadline_t=sample_t + deadline_s,
                base_speed_kn=base_speed_kn,
            )
            if plan.diverted and plan.feasible:
                _STORM_ROUTE_CACHE[key] = (origin, (lat, lon))
                return origin, (lat, lon)
    raise RuntimeError(
        f"no diverting route under weather seed {seed} — widen "
        f"STORM_WAYPOINT_CANDIDATES or STORM_ORIGIN_REGIONS"
    )


def _fix_t(chunk: int, slot: int) -> float:
    """Voyage fix times interleave the workload's (offset 1.5 vs 1.0;
    per-twin 0.01 slots) so every timestamp in the stream is distinct."""
    return 1.5 + chunk * SPACING_S + slot * 0.01


def build_voyage_fleet(table, seed: int, steps: int) -> Fleet:
    """The three margin-robust voyage twins for ``seed``, their fixes and
    closing fixes, and the voyage keywords every node needs.

    Origins sit in row-3 regions (lat 40: >600 km north of every workload
    group, so no proximity/collision geometry can ever involve them), and
    the twins' mmsis all hash onto :data:`TARGET` under ``table`` — a pure
    function of the node set, so no cluster need stand up to pick them.
    """
    if steps * SPACING_S >= REPLAN_CADENCE_S:
        raise ValueError(
            "the campaign's fix span must fit inside one replan bucket, or mid-campaign "
            "replans re-anchor every plan and the divergence watch measures nothing"
        )
    diverge_mmsi, breach_mmsi, storm_mmsi = mmsis_owned_by(table, TARGET, count=3, base=400_000_000)
    weather = ForecastingWeatherField(  # the field every node mounts
        seed=seed, degradation_tau_s=WEATHER_DEGRADATION_TAU_S, max_wind_mps=MAX_WIND_MPS
    )
    storm_t0 = _fix_t(0, 2)
    storm_origin, storm_waypoint = find_storm_route(
        weather, seed, storm_t0, 9 * 86_400.0, VOYAGE_BASE_SPEED_KN
    )
    twins = (
        # Planned due east, sails due north: cross-track only grows.
        VoyageTwin(
            role="diverge",
            kind="route_divergence",
            mmsi=diverge_mmsi,
            origin=_region_center(24),  # (40.0, 8.0)
            waypoints=((40.0, 14.0),),
            deadline_t=40 * 86_400.0,
        ),
        # ~800 km to go, one hour to do it: every plan breaches.
        VoyageTwin(
            role="breach",
            kind="eta_breach",
            mmsi=breach_mmsi,
            origin=_region_center(26),  # (40.0, 12.0)
            waypoints=((36.0, 4.0),),
            deadline_t=_fix_t(0, 1) + 3_600.0,
        ),
        # Probed route whose departure plan dog-legs around weather.
        VoyageTwin(
            role="storm",
            kind="storm_avoidance",
            mmsi=storm_mmsi,
            origin=storm_origin,
            waypoints=(storm_waypoint,),
            deadline_t=storm_t0 + 9 * 86_400.0,
        ),
    )
    # One post-heal fix per twin in a fresh replan bucket: crosses the
    # bucket boundary, so every twin replans exactly once more — the
    # deterministic plan the parity check fingerprints.
    closing_t = CLOSING_BUCKET * REPLAN_CADENCE_S + 1.0
    return Fleet(
        chunks=tuple(
            tuple(_twin_fix(twin, k, _fix_t(k, slot)) for slot, twin in enumerate(twins))
            for k in range(steps)
        ),
        mmsis=tuple(twin.mmsi for twin in twins),
        twins=twins,
        closing=tuple(
            _twin_fix(twin, steps, closing_t + slot * 0.01) for slot, twin in enumerate(twins)
        ),
        platform={
            "voyage_optimization": True,
            "weather_seed": seed,
            "weather_max_wind_mps": MAX_WIND_MPS,
            "voyage_replan_cadence_s": REPLAN_CADENCE_S,
            "voyage_divergence_m": DIVERGENCE_M,
        },
    )


def _twin_fix(twin: VoyageTwin, chunk: int, t: float) -> AISMessage:
    """``twin``'s fix at time ``t`` in chunk ``chunk``."""
    if twin.role == "diverge":
        lat = twin.origin[0] + DRIFT_DEG_PER_CHUNK * chunk
        return AISMessage(mmsi=twin.mmsi, t=t, lat=lat, lon=twin.origin[1], sog=12.0, cog=0.0)
    # The breach and storm twins loiter at their origins (their events
    # come from the plans, not the track); the tiny eastward drift keeps
    # replayed fixes distinguishable without leaving the origin cell.
    lon = twin.origin[1] + 1e-5 * chunk
    return AISMessage(mmsi=twin.mmsi, t=t, lat=twin.origin[0], lon=lon, sog=0.3, cog=90.0)


def voyage_event_parity(campaign) -> list[Violation]:
    # Keyed by mmsi, not timestamp: a recovered twin legitimately
    # re-emits an event the checkpoint had not covered, and set
    # semantics absorb the replay.
    events = collect_events(campaign.cluster, VOYAGE_EVENT_KINDS, lambda payload: payload.mmsi)
    reference = campaign.oracle.voyage_events
    campaign.observed.update(voyage_events=events, reference_voyage_events=reference)
    return check_event_parity(events, reference, "voyage-event-parity", "twin")


def plan_parity(campaign) -> list[Violation]:
    cluster, twins = campaign.cluster, campaign.fleet.twins
    plans = collect_final_plans(cluster, twins)
    campaign.observed.update(plan_fingerprints=plans, reference_plans=campaign.oracle.plans)
    campaign.observed["counters"].update(
        state_transfers=sum(n.state_transfers_received for n in cluster.nodes),
        voyage_twins_on_target=sum(
            1
            for twin in twins
            for node_id, _ in vessel_hosts(cluster, twin.mmsi)
            if node_id == TARGET
        ),
    )
    violations = []
    for mmsi, expected in sorted(campaign.oracle.plans.items()):
        got = plans.get(mmsi)
        if expected is None:
            violations.append(
                Violation(
                    "plan-parity",
                    f"twin {mmsi} holds no plan even in the fault-free run (harness bug)",
                )
            )
        elif got != expected:
            violations.append(
                Violation(
                    "plan-parity",
                    f"twin {mmsi} closed with plan {(got or 'none')[:16]}, fault-free run "
                    f"closed with {expected[:16]} — voyage state did not survive",
                )
            )
    return violations
