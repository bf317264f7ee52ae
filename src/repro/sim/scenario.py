"""Scenario descriptions and the end-to-end simulation runner.

A :class:`Scenario` is data: a fault profile, a fault script (steps
applied at chunk boundaries of the workload), and cluster shape.
:func:`run_scenario` executes it twice — once fault-free as the oracle
(cached per seed), once under faults — heals everything, replays the AIS
stream from offset 0 and runs the four invariant checkers, returning a
:class:`SimReport` whose :meth:`~SimReport.fingerprint` is reproducible
byte-for-byte from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.distributed import LoopbackCluster
from repro.sim.campaign import (
    CampaignReport,
    ClusterCampaign,
    FaultStep,
    drive_chunks,
    fault_free_oracle,
)
from repro.sim.faults import FaultSpec
from repro.sim.invariants import collect_events, vessel_hosts
from repro.sim.workload import generate_workload


@dataclass(frozen=True)
class Scenario:
    """A named fault campaign over the standard workload."""

    name: str
    faults: FaultSpec = FaultSpec()
    script: tuple[FaultStep, ...] = ()
    num_nodes: int = 3
    batching: bool = False
    steps: int = 10
    #: Wall-clock seconds ticked between workload chunks (keeps heartbeats
    #: flowing; well under the 2 s suspicion threshold per chunk).
    tick_per_chunk_s: float = 1.0
    #: Failure-detector DOWN threshold for the simulated cluster. Wider
    #: than the production default (5 s): a partition window plus the
    #: worst-case injected delay plus heartbeat phase must stay below it,
    #: or a *live* node gets a terminal false-DOWN — which legitimately
    #: diverges from the fault-free oracle (DOWN is per-incarnation final
    #: and only an explicit re-join reconciles it).
    down_after_s: float = 8.0


@dataclass
class SimReport(CampaignReport):
    """What one standard-workload campaign run observed."""

    events: set
    reference_events: set
    final_hosting: dict[int, tuple[str, float]]
    counters: dict
    replayed: int
    #: Cluster-wide telemetry snapshot captured before shutdown. Kept out
    #: of the fingerprint (the invariant digest predates telemetry); its
    #: own determinism is asserted separately by
    #: ``tests/sim/test_telemetry_determinism.py``.
    telemetry: dict | None = None

    DIGEST = ("scenario", "seed", "events", "final_hosting",
              "counters", "violations", "replayed")


def reference_events(seed: int, steps: int, num_nodes: int) -> set:
    """The (kind, pair) event set of the fault-free run of ``seed`` — on
    a plain :class:`LoopbackCluster`, independent of the fault harness."""
    def run() -> set:
        workload = generate_workload(seed, steps=steps)
        cluster = LoopbackCluster(num_nodes=num_nodes)
        try:
            drive_chunks(cluster, workload.messages_by_step, tick_s=1.0)
            return collect_events(cluster)
        finally:
            cluster.shutdown()

    return fault_free_oracle(("events", seed, steps, num_nodes), seed, run)


def run_scenario(scenario: Scenario, seed: int) -> SimReport:
    """Execute ``scenario`` under ``seed`` and check all four invariants."""
    workload = generate_workload(seed, steps=scenario.steps)
    oracle = reference_events(seed, scenario.steps, scenario.num_nodes)
    with ClusterCampaign(
            scenario, seed,
            cluster={"transport_batching": scenario.batching}) as campaign:
        campaign.arm()
        campaign.drive(workload.messages_by_step)
        campaign.heal_and_replay()

        cluster = campaign.cluster
        events = collect_events(cluster)
        violations = campaign.standard_violations(events, oracle,
                                                  workload.final_t)
        final_hosting: dict[int, tuple[str, float]] = {}
        for mmsi in workload.final_t:
            for node_id, actor in vessel_hosts(cluster, mmsi):
                if actor is not None and actor.last_message is not None:
                    final_hosting[mmsi] = (node_id, actor.last_message.t)
        return SimReport(
            scenario=scenario.name, seed=seed, violations=violations,
            events=events, reference_events=oracle,
            final_hosting=final_hosting, counters=campaign.counters(),
            replayed=campaign.replayed,
            telemetry=cluster.telemetry_snapshot())
