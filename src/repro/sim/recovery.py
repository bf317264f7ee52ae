"""Checkpointed crash recovery under the deterministic simulator.

A recovery campaign (``tests/sim/test_recovery.py`` declares it) drives
the standard workload with link faults armed, takes checkpoints at
quiescent boundaries, crashes a node mid-stream and — unlike the
campaigns that end in a *full* AIS replay — recovers it from the latest
checkpoint via :meth:`LoopbackCluster.recover`, replaying only the stream
suffix past the checkpointed offsets (``Scenario(full_replay=False)``).

Two recovery-specific checks join the standard invariants:

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

The fault profile must not drop frames
(:func:`~repro.sim.campaign.check_script` refuses it for any scenario
that recovers): only the suffix past the checkpoint is replayed, so a
frame dropped outside that suffix is genuinely gone — a drop there tests
the fault model, not the recovery path.
"""

from __future__ import annotations

from repro.sim.invariants import Violation, check_single_hosting

#: What a recovery run digests: ``suffix_replayed`` is the suffix the
#: recovery re-dispatched, ``total_records`` the full log at the end and
#: ``covered`` the records the latest checkpoint's offsets spared.
DIGEST = (
    "scenario",
    "seed",
    "events",
    "counters",
    "violations",
    "suffix_replayed",
    "total_records",
    "checkpoints_taken",
    "covered",
)
HEADLINE = ("replayed={suffix_replayed}/{total_records}",)


def single_hosting(campaign) -> list[Violation]:
    return check_single_hosting(campaign.cluster, campaign.workload.final_t)


def checkpoint_economy(campaign) -> list[Violation]:
    seed = campaign.cluster.seed
    total = sum(
        seed.broker.end_offset(seed.config.ais_topic, p) for p in range(seed.config.ais_partitions)
    )
    checkpoint = campaign.latest_checkpoint
    covered = sum(checkpoint.offsets.values()) if checkpoint else 0
    campaign.observed.update(
        total_records=total, checkpoints_taken=campaign.checkpoints_taken, covered=covered
    )
    gauges = seed.telemetry.registry.snapshot()["gauges"]
    restored = int(gauges.get("recovery_entities_restored", 0))
    campaign.observed["counters"]["recovery_entities_restored"] = restored
    if covered == 0:
        return [
            Violation("checkpoint-economy", "no checkpoint with stream progress was ever captured")
        ]
    if campaign.suffix_replayed >= total:
        return [
            Violation(
                "checkpoint-economy",
                f"suffix replay re-dispatched {campaign.suffix_replayed} of {total} records — "
                f"no cheaper than replay_from_start",
            )
        ]
    return []
