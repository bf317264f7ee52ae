"""Live shard rebalancing under the deterministic simulator.

A rebalance campaign (``tests/sim/test_rebalance.py`` declares three)
drives the standard workload plus a *hot-ballast* fleet through a
cluster whose config arms the telemetry-driven control loop
(:mod:`repro.cluster.rebalance`, :data:`CONTROL_LOOP`): a few loner
vessels — placed in far regions where they can never produce events —
are chosen so their shards land on one victim node, and each publishes a
burst of sub-30-second fixes per chunk. The bursts are downsampled away
state-wise but count as router load, so the leader's
:class:`~repro.cluster.rebalance.Rebalancer` sees a genuinely skewed
cluster and must migrate shards live while the stream keeps flowing
(and, per script, while nodes crash mid-migration or drain out
gracefully).

On top of the standard invariants the campaign requires:

* **exclusive ownership** — sampled at every quiescent chunk boundary by
  the script's ``sample_ownership`` steps, not just at the end (where
  every campaign checks it);
* **rebalance activity** — the leader executed at least one migration
  plan, otherwise the campaign silently tested nothing (a fault profile
  that suppresses every plan is a harness bug, not a pass).

Determinism note: the planner consumes only per-shard *message counts*
(virtual-clock windows), never wall-derived busy time, so plans — and
therefore the report fingerprint — are reproducible byte-for-byte from
the seed alone.
"""

from __future__ import annotations

from repro.ais.message import AISMessage
from repro.sim.campaign import Fleet, mmsis_owned_by
from repro.sim.invariants import Violation
from repro.sim.workload import _region_center

#: Hot-ballast mmsis are picked upward from here.
HOT_MMSI_BASE = 300_000_000
#: Hot-ballast loner vessels pinned (by mmsi choice) to shards of the
#: victim, at most half of them per shard so the skew spans at least two
#: shards: the planner needs movable weights, not one indivisible block.
HOT_VESSELS = 4
#: Sub-30 s fixes each hot vessel publishes per chunk (router load; all
#: but the first are downsampled away state-wise).
HOT_BURST = 6
#: The initial owner the hot shards are aimed at: a worker, so the
#: campaign watches load leave a node that can crash or drain.
VICTIM = "node-01"
SPACING_S = 60.0
#: :class:`~repro.cluster.ClusterConfig` keywords that run the control
#: loop often enough to act within a campaign.
CONTROL_LOOP = {
    "load_report_interval_s": 0.5,
    "rebalance_interval_s": 2.0,
    "rebalance_min_messages": 16,
}
DIGEST = (
    "scenario",
    "seed",
    "events",
    "fleet_hosting",
    "counters",
    "violations",
    "plans_total",
    "moves_total",
    "state_transfers",
    "replayed",
)
HEADLINE = ("plans={plans_total}", "moves={moves_total}")


def hot_ballast(table, seed: int, steps: int) -> Fleet:
    """The hot vessels :data:`VICTIM` owns under ``table`` and their
    bursts (the seed plays no part: the skew is a function of the node
    set)."""
    hot = mmsis_owned_by(table, VICTIM, HOT_VESSELS, HOT_MMSI_BASE, HOT_VESSELS // 2)
    return Fleet(chunks=hot_ballast_chunks(hot, steps), mmsis=tuple(hot))


def hot_ballast_chunks(mmsis: list[int], steps: int) -> tuple[tuple[AISMessage, ...], ...]:
    """Per-chunk fix bursts for the hot vessels.

    Each vessel sits nearly still in its own far region (region indices
    from 40 up: >10 degrees north of every workload group, so no event
    geometry can involve it) and publishes :data:`HOT_BURST` fixes 5 s
    apart per chunk. Only the first fix of each chunk survives the 30 s
    downsampler — deterministically, under any delivery order the final
    full in-order replay normalises — but every fix crosses the router
    of whichever node owns the vessel's shard, which is the load signal
    the rebalancer acts on.
    """
    chunks = []
    for k in range(steps):
        chunk = []
        for i, mmsi in enumerate(mmsis):
            lat, lon = _region_center(40 + i)
            for j in range(HOT_BURST):
                t = 1.0 + k * SPACING_S + j * 5.0 + i * 0.001
                fix = AISMessage(mmsi=mmsi, t=t, lat=lat, lon=lon + j * 1e-6, sog=0.2, cog=0.0)
                chunk.append(fix)
        chunks.append(tuple(chunk))
    return tuple(chunks)


def rebalance_activity(campaign) -> list[Violation]:
    nodes = campaign.cluster.nodes
    rebalancer = nodes[0].rebalancer
    campaign.observed.update(
        plans_total=rebalancer.plans_total,
        moves_total=rebalancer.moves_total,
        state_transfers=sum(n.state_transfers_received for n in nodes),
    )
    campaign.observed["counters"].update(
        overrides=len(nodes[0].table.overrides),
        state_transfer_drops=sum(n.state_transfer_drops for n in nodes),
    )
    if rebalancer.plans_total >= 1:
        return []
    return [
        Violation(
            "rebalance-activity",
            "leader executed no migration plan — the skew never triggered the control loop",
        )
    ]
