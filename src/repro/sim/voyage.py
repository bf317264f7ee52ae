"""Mid-voyage fault injection: replanning state must survive the cluster.

:func:`run_voyage_scenario` drives the standard workload plus a small
voyage fleet — three twins assigned routes that deterministically produce
each voyage event kind — through a :class:`~repro.sim.campaign.SimCluster`
with voyage optimization armed, and proves that crash/checkpoint-recovery
and live shard migration are invisible to the optimizer:

* **event parity** — the faulty run's (kind, mmsi) voyage event set and
  the standard (kind, pair) encounter set both equal those of the
  fault-free oracle: one standalone platform assigned the same twins and
  fed the same chunks and closing fixes;
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

Fault windows are orderly: link faults (delays, dups, reordering) stay
armed while the stream flows, but recovery and migration themselves run
quiesced — a delayed ``ShardStateTransfer`` losing the race against the
post-handoff replay would silently drop voyage state behind an equal
``last_kept_t``, which models an operator racing their own recovery, not
a runtime fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ais.message import AISMessage
from repro.cluster import ClusterConfig
from repro.cluster.sharding import ShardTable
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.models.fuel import FuelModel
from repro.models.voyage import Waypoint, plan_voyage
from repro.platform.pipeline import WEATHER_DEGRADATION_TAU_S
from repro.platform.vessel_actor import VOYAGE_BASE_SPEED_KN
from repro.sim.campaign import (
    CampaignReport,
    ClusterCampaign,
    FaultStep,
    fault_free_oracle,
    mmsis_owned_by,
)
from repro.sim.faults import FaultSpec
from repro.sim.invariants import (
    Violation,
    check_event_parity,
    collect_events,
    collect_final_plans,
    vessel_hosts,
)
from repro.sim.workload import _region_center, generate_workload
from repro.weather.forecast import ForecastingWeatherField


@dataclass(frozen=True)
class VoyageScenario:
    """A voyage-replanning campaign over the standard workload plus the
    three-twin voyage fleet. All fault actions target ``target`` — the
    node the voyage twins are pinned to by mmsi choice, so a crash or a
    drain genuinely interrupts mid-voyage optimizer state."""

    name: str = "voyage-replanning"
    #: Link faults active while the stream flows (never during the
    #: orderly recovery/migration windows — see the module docstring).
    faults: FaultSpec = FaultSpec(
        dup_p=0.05, delay_p=0.2, delay_min_s=0.05, delay_max_s=0.5, reorder_p=0.15
    )
    num_nodes: int = 3
    steps: int = 10
    spacing_s: float = 60.0
    #: The node hosting every voyage twin (and the fault target).
    target: str = "node-01"
    #: Checkpoint at this chunk boundary; the crash leg recovers from it.
    checkpoint_after_chunk: int = 3
    #: Crash ``target`` after this chunk and recover it from the
    #: checkpoint; None disables the crash leg.
    crash_after_chunk: int | None = None
    #: Grow the cluster live after this chunk; None disables.
    add_node_after_chunk: int | None = None
    #: Gracefully drain ``target`` after this chunk (its voyage twins all
    #: migrate live); None disables.
    drain_after_chunk: int | None = None
    #: Voyage knobs (mirrored into the PlatformConfig).
    replan_cadence_s: float = 3_600.0
    divergence_m: float = 5_000.0
    max_wind_mps: float = 26.0
    #: Degrees of northward drift per chunk for the diverge twin
    #: (~3.3 km — past the divergence threshold within two chunks).
    drift_deg_per_chunk: float = 0.03
    #: The closing fix lands in this replan bucket — past every campaign
    #: fix, so it triggers exactly one final deterministic replan.
    closing_bucket: int = 2
    tick_per_chunk_s: float = 1.0
    down_after_s: float = 8.0

    def __post_init__(self) -> None:
        if self.target == "node-00":
            raise ValueError(
                "the target must be a worker node (the seed "
                "owns the broker and cannot crash or drain)"
            )
        if self.steps < 2:
            raise ValueError("need at least two chunks (warm-up + one fault-armed chunk)")
        if self.crash_after_chunk is not None and not (
            0 < self.checkpoint_after_chunk < self.crash_after_chunk < self.steps
        ):
            raise ValueError("need 0 < checkpoint_after_chunk < crash_after_chunk < steps")
        if self.add_node_after_chunk is not None and not (
            0 < self.add_node_after_chunk < self.steps
        ):
            raise ValueError("add_node_after_chunk out of range")
        if self.drain_after_chunk is not None:
            if not 0 < self.drain_after_chunk < self.steps:
                raise ValueError("drain_after_chunk out of range")
            if self.crash_after_chunk is not None:
                raise ValueError("cannot both crash and drain the target")
        if self.steps * self.spacing_s >= self.replan_cadence_s:
            raise ValueError(
                "the campaign's fix span must fit inside one replan "
                "bucket, or mid-campaign replans re-anchor every plan and "
                "the divergence watch measures nothing"
            )
        if self.closing_bucket < 1:
            raise ValueError(
                "closing_bucket must be >= 1 (the closing "
                "fix must cross a fresh bucket to replan)"
            )
        if self.drift_deg_per_chunk <= 0 or self.divergence_m <= 0:
            raise ValueError("drift and divergence threshold must be positive")

    @property
    def script(self) -> tuple[FaultStep, ...]:
        """The crash leg — a checkpoint, later the crash (armed: it takes
        in-flight frames with it) and an orderly recovery once the failure
        detector has had two DOWN windows, so the checkpointed voyage
        state is offered before any replay can rebuild planless twins —
        and the orderly scale-out and drain (see the module docstring)."""
        steps = []
        if self.crash_after_chunk is not None:
            calm, crash = FaultSpec(), self.crash_after_chunk
            steps += [
                FaultStep(self.checkpoint_after_chunk, "quiesce"),
                FaultStep(self.checkpoint_after_chunk, "checkpoint"),
                FaultStep(crash, "crash", {"node": self.target}),
                FaultStep(crash, "set_faults", {"faults": calm}),
                FaultStep(crash, "resolve"),
                FaultStep(crash, "recover", {"node": self.target}, orderly=True),
                FaultStep(crash, "set_faults", {"faults": self.faults}),
            ]
        if self.add_node_after_chunk is not None:
            steps.append(FaultStep(self.add_node_after_chunk, "add_node", orderly=True))
        if self.drain_after_chunk is not None:
            steps.append(
                FaultStep(self.drain_after_chunk, "drain", {"node": self.target}, orderly=True)
            )
        return tuple(steps)


@dataclass(frozen=True)
class VoyageTwin:
    """One voyage assignment plus the fix track that realises its role."""

    role: str  #: diverge | breach | storm
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


def _fix_t(scenario: VoyageScenario, chunk: int, slot: int) -> float:
    """Voyage fix times interleave the workload's (offset 1.5 vs 1.0;
    per-twin 0.01 slots) so every timestamp in the stream is distinct."""
    return 1.5 + chunk * scenario.spacing_s + slot * 0.01


def build_voyage_fleet(scenario: VoyageScenario, seed: int) -> tuple[VoyageTwin, ...]:
    """The three margin-robust voyage twins for ``seed``.

    Origins sit in row-3 regions (lat 40: >600 km north of every workload
    group, so no proximity/collision geometry can ever involve them), and
    the twins' mmsis all hash onto ``scenario.target`` under the formed
    cluster's shard table — a pure function of the node set, so no
    cluster need stand up to pick them.
    """
    nodes = tuple(f"node-{i:02d}" for i in range(scenario.num_nodes))
    table = ShardTable(epoch=1, nodes=nodes, num_shards=ClusterConfig().num_shards)
    diverge_mmsi, breach_mmsi, storm_mmsi = mmsis_owned_by(
        table, scenario.target, count=3, base=400_000_000
    )
    weather = ForecastingWeatherField(  # the field every node mounts
        seed=seed, degradation_tau_s=WEATHER_DEGRADATION_TAU_S, max_wind_mps=scenario.max_wind_mps
    )
    diverge_origin = _region_center(24)  # (40.0, 8.0)
    breach_origin = _region_center(26)  # (40.0, 12.0)
    storm_t0 = _fix_t(scenario, 0, 2)
    storm_origin, storm_waypoint = find_storm_route(
        weather, seed, storm_t0, 9 * 86_400.0, VOYAGE_BASE_SPEED_KN
    )
    return (
        # Planned due east, sails due north: cross-track only grows.
        VoyageTwin(
            role="diverge",
            mmsi=diverge_mmsi,
            origin=diverge_origin,
            waypoints=((40.0, 14.0),),
            deadline_t=40 * 86_400.0,
        ),
        # ~800 km to go, one hour to do it: every plan breaches.
        VoyageTwin(
            role="breach",
            mmsi=breach_mmsi,
            origin=breach_origin,
            waypoints=((36.0, 4.0),),
            deadline_t=_fix_t(scenario, 0, 1) + 3_600.0,
        ),
        # Probed route whose departure plan dog-legs around weather.
        VoyageTwin(
            role="storm",
            mmsi=storm_mmsi,
            origin=storm_origin,
            waypoints=(storm_waypoint,),
            deadline_t=storm_t0 + 9 * 86_400.0,
        ),
    )


def _twin_position(
    twin: VoyageTwin, scenario: VoyageScenario, chunk: int
) -> tuple[float, float, float, float]:
    """(lat, lon, sog, cog) of ``twin`` at chunk ``chunk``."""
    if twin.role == "diverge":
        return (twin.origin[0] + scenario.drift_deg_per_chunk * chunk, twin.origin[1], 12.0, 0.0)
    # The breach and storm twins loiter at their origins (their events
    # come from the plans, not the track); the tiny eastward drift keeps
    # replayed fixes distinguishable without leaving the origin cell.
    return (twin.origin[0], twin.origin[1] + 1e-5 * chunk, 0.3, 90.0)


def voyage_chunks(
    fleet: tuple[VoyageTwin, ...], scenario: VoyageScenario
) -> list[tuple[AISMessage, ...]]:
    """Per-chunk voyage fixes riding along with the workload chunks."""
    chunks = []
    for k in range(scenario.steps):
        chunk = []
        for slot, twin in enumerate(fleet):
            lat, lon, sog, cog = _twin_position(twin, scenario, k)
            chunk.append(
                AISMessage(
                    mmsi=twin.mmsi, t=_fix_t(scenario, k, slot), lat=lat, lon=lon, sog=sog, cog=cog
                )
            )
        chunks.append(tuple(chunk))
    return chunks


def closing_fixes(
    fleet: tuple[VoyageTwin, ...], scenario: VoyageScenario
) -> tuple[AISMessage, ...]:
    """One post-heal fix per twin in a fresh replan bucket: crosses the
    bucket boundary, so every twin replans exactly once more — the
    deterministic plan the parity check fingerprints."""
    t_base = scenario.closing_bucket * scenario.replan_cadence_s + 1.0
    fixes = []
    for slot, twin in enumerate(fleet):
        lat, lon, sog, cog = _twin_position(twin, scenario, scenario.steps)
        fixes.append(
            AISMessage(mmsi=twin.mmsi, t=t_base + slot * 0.01, lat=lat, lon=lon, sog=sog, cog=cog)
        )
    return tuple(fixes)


@dataclass
class VoyageReport(CampaignReport):
    """What one voyage-replanning campaign run observed, beside the
    fault-free reference it was checked against."""

    events: set
    reference_events: set
    voyage_events: set
    reference_voyage_events: set
    plan_fingerprints: dict[int, str | None]
    reference_plans: dict[int, str | None]
    replayed: int
    suffix_replayed: int
    counters: dict = field(default_factory=dict)

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
    SUMMARY = ("voyage_events={voyage_events}",)


#: Expected (kind, role) pairing every oracle must realise, else the
#: campaign would be vacuous for that kind.
_EXPECTED_KINDS = (
    ("route_divergence", "diverge"), ("eta_breach", "breach"), ("storm_avoidance", "storm")
)


def run_voyage_scenario(scenario: VoyageScenario, seed: int) -> VoyageReport:
    """Execute ``scenario`` under ``seed`` and check the standard
    invariants plus voyage event parity and plan parity."""
    workload = generate_workload(seed, steps=scenario.steps, spacing_s=scenario.spacing_s)
    fleet = build_voyage_fleet(scenario, seed)
    chunks = [w + v for w, v in zip(workload.messages_by_step, voyage_chunks(fleet, scenario))]
    closing = closing_fixes(fleet, scenario)
    platform = {
        "voyage_optimization": True,
        "weather_seed": seed,
        "weather_max_wind_mps": scenario.max_wind_mps,
        "voyage_replan_cadence_s": scenario.replan_cadence_s,
        "voyage_divergence_m": scenario.divergence_m,
    }
    oracle = fault_free_oracle(seed, [*chunks, closing], platform, fleet)
    mmsi_of = {twin.role: twin.mmsi for twin in fleet}
    for kind, role in _EXPECTED_KINDS:
        if (kind, mmsi_of[role]) not in oracle.voyage_events:
            raise RuntimeError(
                f"degenerate voyage workload for seed {seed}: fault-free run never emitted "
                f"{kind} for the {role} twin ({sorted(oracle.voyage_events)}) — parity "
                f"would be vacuous"
            )

    with ClusterCampaign(scenario, seed, platform=platform) as campaign:
        cluster = campaign.cluster
        for twin in fleet:
            cluster.assign_voyage(twin.mmsi, twin.waypoints, twin.deadline_t)
        # Warm-up chunk, fault-free: plans only land at process barriers,
        # and the divergence watch needs a plan to diverge from before
        # any fault can interrupt it.
        campaign.drive(chunks[:1], at_boundary=lambda k: cluster.quiesce())
        campaign.arm()
        campaign.drive(chunks[1:], first=1, at_boundary=lambda k: cluster.quiesce())
        campaign.heal_and_replay()

        # The closing fix crosses a fresh replan bucket: one final
        # deterministic replan per twin, whose fingerprint the parity
        # check compares against the oracle's.
        cluster.seed.publish_messages(closing)
        cluster.process_available()
        cluster.quiesce()
        cluster.process_available()

        events = collect_events(cluster)
        # Keyed by mmsi, not timestamp: a recovered twin legitimately
        # re-emits an event the checkpoint had not covered, and set
        # semantics absorb the replay.
        voyage_events = collect_events(cluster, VOYAGE_EVENT_KINDS, lambda payload: payload.mmsi)
        plans = collect_final_plans(cluster, fleet)

        violations = campaign.standard_violations(events, oracle.events, workload.final_t)
        violations += check_event_parity(
            voyage_events, oracle.voyage_events, "voyage-event-parity", "twin"
        )
        for mmsi, expected in sorted(oracle.plans.items()):
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

        counters = campaign.counters()
        counters["state_transfers"] = sum(n.state_transfers_received for n in cluster.nodes)
        counters["voyage_twins_on_target"] = sum(
            1
            for twin in fleet
            for node_id, _ in vessel_hosts(cluster, twin.mmsi)
            if node_id == scenario.target
        )
        return VoyageReport(
            scenario=scenario.name,
            seed=seed,
            violations=violations,
            events=events,
            reference_events=oracle.events,
            voyage_events=voyage_events,
            reference_voyage_events=oracle.voyage_events,
            plan_fingerprints=plans,
            reference_plans=oracle.plans,
            replayed=campaign.replayed,
            suffix_replayed=campaign.suffix_replayed,
            counters=counters,
        )
