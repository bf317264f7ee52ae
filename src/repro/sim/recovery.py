"""Checkpointed crash recovery under the deterministic simulator.

:func:`run_recovery_scenario` drives the standard workload through a
:class:`~repro.sim.campaign.SimCluster` with link faults armed, taking
periodic checkpoints at quiescent boundaries, then crashes a node
mid-stream and — unlike the campaigns in :mod:`~repro.sim.scenario`,
which heal with a *full* AIS replay — recovers it from the latest
checkpoint via :meth:`LoopbackCluster.recover`, replaying only the
stream suffix past the checkpointed offsets.

Two recovery-specific invariants join the standard checks:

* **checkpoint economy** — the suffix replay re-dispatched strictly
  fewer records than the full log holds (otherwise the checkpoint
  bought nothing over ``replay_from_start``);
* **single hosting** — after recovery every published vessel is hosted
  by exactly one live node (a bad restore would double-host).

Event parity against the fault-free oracle is still the headline check.
The exact final-position invariant (``check_no_acked_loss``) does not
apply here: without a terminal in-order full replay, reordered fixes can
legitimately shift the 30-second downsampling decisions, so the last
*kept* fix may differ from the fault-free run while the detected
encounters do not.

The fault profile must not drop frames (:class:`RecoveryScenario`
enforces ``drop_p == 0``): recovery replays only the suffix past the
checkpoint, so a frame dropped outside that suffix is genuinely gone —
a drop there tests the fault model, not the recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.campaign import CampaignReport, ClusterCampaign, FaultStep, fault_free_oracle
from repro.sim.faults import FaultSpec
from repro.sim.invariants import (
    Violation,
    check_single_hosting,
    collect_events,
)
from repro.sim.workload import generate_workload


@dataclass(frozen=True)
class RecoveryScenario:
    """A crash-and-recover-from-checkpoint campaign over the standard
    workload. Chunk indices follow :class:`~repro.sim.campaign.FaultStep`
    semantics: an action at chunk ``k`` fires *after* chunk ``k`` is
    processed."""

    name: str = "checkpoint-recovery"
    #: Link faults active throughout (never drops — see module docstring).
    faults: FaultSpec = FaultSpec(dup_p=0.05, delay_p=0.2,
                                  delay_min_s=0.05, delay_max_s=0.6,
                                  reorder_p=0.2)
    num_nodes: int = 3
    steps: int = 10
    #: A quiescent checkpoint is captured after every this-many chunks,
    #: up to the crash.
    checkpoint_every: int = 2
    crash_node: str = "node-01"
    crash_after_chunk: int = 4
    #: When the failure detector gets time to resolve the crash and the
    #: node is recovered from the latest checkpoint.
    recover_after_chunk: int = 7
    tick_per_chunk_s: float = 1.0
    down_after_s: float = 8.0

    def __post_init__(self) -> None:
        if self.faults.drop_p > 0:
            raise ValueError(
                "recovery scenarios must not drop frames: only the "
                "checkpoint suffix is replayed, so a drop outside it is "
                "unrecoverable by design")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not (self.checkpoint_every <= self.crash_after_chunk
                < self.recover_after_chunk < self.steps):
            raise ValueError(
                "need checkpoint_every <= crash_after_chunk < "
                "recover_after_chunk < steps so at least one checkpoint "
                "precedes the crash and chunks follow the recovery")

    @property
    def script(self) -> tuple[FaultStep, ...]:
        """Quiescent checkpoints up to the crash, the crash, then — once
        the failure detector has had two DOWN windows to resolve the dead
        incarnation — recovery from the latest checkpoint, link faults
        still armed."""
        return (
            *(FaultStep(k, "checkpoint", orderly=True)
              for k in range(self.checkpoint_every - 1,
                             self.crash_after_chunk, self.checkpoint_every)),
            FaultStep(self.crash_after_chunk, "crash",
                      {"node": self.crash_node}),
            FaultStep(self.recover_after_chunk, "resolve"),
            FaultStep(self.recover_after_chunk, "recover",
                      {"node": self.crash_node}),
        )


@dataclass
class RecoveryReport(CampaignReport):
    """What one checkpoint-recovery campaign run observed."""

    events: set
    reference_events: set
    #: Records the recovery suffix replay re-dispatched.
    replayed: int
    #: Records the full AIS log held at recovery time.
    total_records: int
    checkpoints_taken: int
    #: Records the latest checkpoint's offsets covered (not replayed).
    covered: int
    counters: dict = field(default_factory=dict)

    DIGEST = ("scenario", "seed", "events", "counters",
              "violations", "replayed", "total_records",
              "checkpoints_taken", "covered")
    SUMMARY = ("replayed={replayed}/{total_records}",)


def run_recovery_scenario(scenario: RecoveryScenario, seed: int,
                          workdir: str | None = None) -> RecoveryReport:
    """Execute ``scenario`` under ``seed``; pass ``workdir`` to route the
    checkpoint through disk (write at capture, load at recovery)."""
    workload = generate_workload(seed, steps=scenario.steps)
    oracle = fault_free_oracle(seed, workload.messages_by_step).events
    with ClusterCampaign(scenario, seed, workdir=workdir) as campaign:
        campaign.arm()
        campaign.drive(workload.messages_by_step)
        # No full replay here: the suffix replay *is* the recovery under
        # test. Just let every late frame land before the invariants look.
        campaign.stop_faults()

        cluster = campaign.cluster
        events = collect_events(cluster)
        violations = campaign.standard_violations(events, oracle)
        violations += check_single_hosting(cluster, workload.final_t)

        seed_platform = cluster.seed
        total_records = sum(
            seed_platform.broker.end_offset(
                seed_platform.config.ais_topic, p)
            for p in range(seed_platform.config.ais_partitions))
        checkpoint = campaign.latest_checkpoint
        covered = sum(checkpoint.offsets.values()) if checkpoint else 0
        if covered == 0:
            violations.append(Violation(
                "checkpoint-economy",
                "no checkpoint with stream progress was ever captured"))
        elif campaign.suffix_replayed >= total_records:
            violations.append(Violation(
                "checkpoint-economy",
                f"suffix replay re-dispatched {campaign.suffix_replayed} "
                f"of {total_records} records — no cheaper than "
                f"replay_from_start"))

        counters = campaign.counters()
        telemetry = seed_platform.telemetry.registry.snapshot()
        counters["recovery_entities_restored"] = int(
            telemetry["gauges"].get("recovery_entities_restored", 0))
        return RecoveryReport(
            scenario=scenario.name, seed=seed, violations=violations,
            events=events, reference_events=oracle,
            replayed=campaign.suffix_replayed, total_records=total_records,
            checkpoints_taken=campaign.checkpoints_taken, covered=covered,
            counters=counters)
