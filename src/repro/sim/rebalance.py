"""Live shard rebalancing under the deterministic simulator.

:func:`run_rebalance_scenario` drives the standard workload plus a
*hot-ballast* extension through a :class:`~repro.sim.campaign.SimCluster`
whose cluster config arms the telemetry-driven control loop
(:mod:`repro.cluster.rebalance`): a few loner vessels — placed in far
regions where they can never produce events — are chosen so their shards
land on one victim node, and each publishes a burst of sub-30-second
fixes per chunk. The bursts are downsampled away state-wise but count as
router load, so the leader's :class:`~repro.cluster.rebalance.Rebalancer`
sees a genuinely skewed cluster and must migrate shards live while the
stream keeps flowing (and, per script, while nodes crash mid-migration
or drain out gracefully).

On top of the four standard invariants the campaign requires:

* **exclusive ownership** — sampled at every quiescent chunk boundary,
  not just at the end: no entity key hosted on two nodes, every table
  internally sound (:func:`~repro.sim.invariants.check_exclusive_ownership`);
* **rebalance activity** — the leader executed at least
  ``require_plans`` migration plans, otherwise the campaign silently
  tested nothing (a fault profile that suppresses every plan is a
  harness bug, not a pass).

Determinism note: the planner consumes only per-shard *message counts*
(virtual-clock windows), never wall-derived busy time, so plans — and
therefore the report fingerprint — are reproducible byte-for-byte from
the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ais.message import AISMessage
from repro.sim.campaign import (
    CampaignReport,
    ClusterCampaign,
    FaultStep,
    mmsis_owned_by,
)
from repro.sim.faults import FaultSpec
from repro.sim.invariants import (
    Violation,
    check_exclusive_ownership,
    collect_events,
    vessel_hosts,
)
from repro.sim.scenario import reference_events
from repro.sim.workload import _region_center, generate_workload

#: Hot-ballast mmsis are picked upward from here.
HOT_MMSI_BASE = 300_000_000


@dataclass(frozen=True)
class RebalanceScenario:
    """A live-migration campaign over the standard workload plus skew.

    Chunk indices follow :class:`~repro.sim.campaign.FaultStep` semantics:
    an action at chunk ``k`` fires *after* chunk ``k`` is processed (and
    before that boundary's invariant sample for crashes — a crash takes
    whatever was still on the wire with it, which is exactly the
    mid-migration case the campaign exists to cover).
    """

    name: str = "live-rebalance"
    #: Link faults active throughout. Delays keep migration traffic
    #: (state transfers, table epochs) in flight across chunk boundaries,
    #: so scripted crashes genuinely interrupt live handoffs.
    faults: FaultSpec = FaultSpec(dup_p=0.05, delay_p=0.25,
                                  delay_min_s=0.05, delay_max_s=0.6,
                                  reorder_p=0.2)
    num_nodes: int = 3
    steps: int = 12
    #: Hot-ballast loner vessels pinned (by mmsi choice) to shards of the
    #: victim node, spread over at least two distinct shards so the
    #: planner has movable weights rather than one indivisible block.
    hot_vessels: int = 4
    #: Sub-30 s fixes each hot vessel publishes per chunk (router load;
    #: all but the first are downsampled away state-wise).
    hot_burst: int = 6
    #: Initial owner the hot shards are aimed at (must not be the seed —
    #: the point is to watch load leave a worker).
    victim: str = "node-01"
    #: Crash this node after this chunk; None disables the crash leg.
    crash_node: str | None = None
    crash_after_chunk: int = 6
    #: Restart the crashed node after this chunk; None leaves it dead.
    restart_after_chunk: int | None = 9
    #: Gracefully drain this node after this chunk; None disables.
    drain_node: str | None = None
    drain_after_chunk: int = 8
    #: The campaign fails unless the leader executed at least this many
    #: migration plans.
    require_plans: int = 1
    tick_per_chunk_s: float = 1.0
    down_after_s: float = 8.0
    load_report_interval_s: float = 0.5
    rebalance_interval_s: float = 2.0
    rebalance_min_messages: int = 16

    def __post_init__(self) -> None:
        if self.hot_vessels < 2:
            raise ValueError("need at least two hot vessels so the skew "
                             "spans two shards the planner can split")
        if self.victim == "node-00":
            raise ValueError("the victim must be a worker node")
        if self.crash_node == "node-00" or self.drain_node == "node-00":
            raise ValueError("the seed cannot crash or drain (it owns "
                             "the broker)")
        if self.crash_node is not None:
            if not 0 <= self.crash_after_chunk < self.steps:
                raise ValueError("crash_after_chunk out of range")
            if self.restart_after_chunk is not None and not \
                    (self.crash_after_chunk < self.restart_after_chunk
                     < self.steps):
                raise ValueError("need crash_after_chunk < "
                                 "restart_after_chunk < steps")
        if self.drain_node is not None:
            if not 0 <= self.drain_after_chunk < self.steps:
                raise ValueError("drain_after_chunk out of range")
            if self.drain_node == self.crash_node:
                raise ValueError("cannot both crash and drain one node")
        if self.require_plans < 0:
            raise ValueError("require_plans must be >= 0")

    @property
    def script(self) -> tuple[FaultStep, ...]:
        """The crash leg (crash, then a restart once the failure detector
        has had two DOWN windows) and the drain leg. Steps fire before
        their boundary's ownership sample: whatever migration traffic was
        still in flight dies with a crashed node."""
        steps = []
        if self.crash_node is not None:
            steps.append(FaultStep(self.crash_after_chunk, "crash",
                                   {"node": self.crash_node}))
            if self.restart_after_chunk is not None:
                steps += [
                    FaultStep(self.restart_after_chunk, "resolve"),
                    FaultStep(self.restart_after_chunk, "restart",
                              {"node": self.crash_node})]
        if self.drain_node is not None:
            steps.append(FaultStep(self.drain_after_chunk, "drain",
                                   {"node": self.drain_node}))
        return tuple(steps)


@dataclass
class RebalanceReport(CampaignReport):
    """What one live-rebalancing campaign run observed."""

    events: set
    reference_events: set
    #: mmsi -> hosting node of every hot vessel after the final replay.
    hot_hosting: dict[int, str]
    plans_total: int
    moves_total: int
    state_transfers: int
    replayed: int
    counters: dict = field(default_factory=dict)

    DIGEST = ("scenario", "seed", "events", "hot_hosting",
              "counters", "violations", "plans_total",
              "moves_total", "state_transfers", "replayed")
    SUMMARY = ("plans={plans_total}", "moves={moves_total}")


def hot_ballast_chunks(mmsis: list[int], scenario: RebalanceScenario,
                       spacing_s: float = 60.0
                       ) -> list[tuple[AISMessage, ...]]:
    """Per-chunk fix bursts for the hot vessels.

    Each vessel sits nearly still in its own far region (region indices
    from 40 up: >10 degrees north of every workload group, so no event
    geometry can involve it) and publishes ``hot_burst`` fixes 5 s apart
    per chunk. Only the first fix of each chunk survives the 30 s
    downsampler — deterministically, under any delivery order the final
    full in-order replay normalises — but every fix crosses the router
    of whichever node owns the vessel's shard, which is the load signal
    the rebalancer acts on.
    """
    chunks = []
    for k in range(scenario.steps):
        chunk = []
        for i, mmsi in enumerate(mmsis):
            lat, lon = _region_center(40 + i)
            for j in range(scenario.hot_burst):
                chunk.append(AISMessage(
                    mmsi=mmsi, t=1.0 + k * spacing_s + j * 5.0 + i * 0.001,
                    lat=lat, lon=lon + j * 1e-6, sog=0.2, cog=0.0))
        chunks.append(tuple(chunk))
    return chunks


def run_rebalance_scenario(scenario: RebalanceScenario, seed: int
                           ) -> RebalanceReport:
    """Execute ``scenario`` under ``seed``, sampling exclusive ownership
    at every chunk boundary and checking all invariants at the end."""
    workload = generate_workload(seed, steps=scenario.steps)
    oracle = reference_events(seed, scenario.steps, scenario.num_nodes)
    with ClusterCampaign(scenario, seed, cluster={
            "load_report_interval_s": scenario.load_report_interval_s,
            "rebalance_interval_s": scenario.rebalance_interval_s,
            "rebalance_min_messages": scenario.rebalance_min_messages,
    }) as campaign:
        cluster = campaign.cluster
        seed_node = cluster.nodes[0]
        # Capped per shard so the skew is splittable: one shard holding
        # every hot vessel cannot be peak-shaved (moving it would just
        # swap which node is hot).
        hot = mmsis_owned_by(seed_node.table, scenario.victim,
                             scenario.hot_vessels, HOT_MMSI_BASE,
                             per_shard_cap=max(1, scenario.hot_vessels // 2))
        hot_chunks = hot_ballast_chunks(hot, scenario)
        violations: list[Violation] = []

        def sample_ownership(k: int) -> None:
            # Quiesce so the sample sees a genuine boundary (the delay
            # heap drained), then assert nobody is double-hosted even
            # with migrations mid-flight between chunks.
            cluster.quiesce()
            violations.extend(check_exclusive_ownership(
                cluster, context=f"chunk {k}"))

        campaign.arm()
        campaign.drive([w + h for w, h in zip(workload.messages_by_step,
                                              hot_chunks)],
                       at_boundary=sample_ownership)
        campaign.heal_and_replay()

        events = collect_events(cluster)
        violations += campaign.standard_violations(events, oracle,
                                                   workload.final_t)
        violations += check_exclusive_ownership(cluster, context="final")
        rebalancer = seed_node.rebalancer
        if rebalancer.plans_total < scenario.require_plans:
            violations.append(Violation(
                "rebalance-activity",
                f"leader executed {rebalancer.plans_total} migration "
                f"plan(s), campaign requires >= {scenario.require_plans} "
                f"— the skew never triggered the control loop"))

        counters = campaign.counters()
        counters["overrides"] = len(seed_node.table.overrides)
        counters["state_transfer_drops"] = sum(
            n.state_transfer_drops for n in cluster.nodes)
        return RebalanceReport(
            scenario=scenario.name, seed=seed, violations=violations,
            events=events, reference_events=oracle,
            hot_hosting={mmsi: hosts[0][0] for mmsi in hot
                         if (hosts := vessel_hosts(cluster, mmsi))},
            plans_total=rebalancer.plans_total,
            moves_total=rebalancer.moves_total,
            state_transfers=sum(n.state_transfers_received
                                for n in cluster.nodes),
            replayed=campaign.replayed, counters=counters)
