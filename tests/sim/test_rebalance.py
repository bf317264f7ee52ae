"""Live shard rebalancing under seeded faults — the acceptance suite for
the telemetry-driven control loop.

Three campaign legs run across at least :data:`SIM_MIN_SEEDS` seeds: the
baseline (skewed load, delays/dups/reordering, live migrations), the
crash leg (a worker dies mid-migration and later rejoins), and the drain
leg (a worker retires gracefully while the stream keeps flowing). Every
leg checks the standard invariants plus exclusive ownership sampled
at every quiescent chunk boundary, and fails unless the leader actually
executed migration plans. Failing seeds replay byte-for-byte via
``pytest tests/sim/test_rebalance.py --sim-seed N``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import shard_for_key
from repro.cluster.sharding import ShardTable
from repro.sim import FaultSpec, FaultStep, Scenario, run
from repro.sim import rebalance

SIM_MIN_SEEDS = 3
CAMPAIGN = "rebalance"

#: Exclusive ownership sampled at each of the 12 chunk boundaries, after
#: the boundary's other steps: whatever migration traffic was still in
#: flight dies with a crashed node first.
SAMPLES = tuple(FaultStep(k, "sample_ownership") for k in range(12))

#: Delays keep migration traffic (state transfers, table epochs) in
#: flight across chunk boundaries, so scripted crashes genuinely
#: interrupt live handoffs.
BASELINE = Scenario(
    name="live-rebalance",
    faults=FaultSpec(dup_p=0.05, delay_p=0.25, delay_min_s=0.05, delay_max_s=0.6, reorder_p=0.2),
    script=SAMPLES,
    steps=12,
    fleet=rebalance.hot_ballast,
    cluster=rebalance.CONTROL_LOOP,
    checks=(rebalance.rebalance_activity,),
    digest=rebalance.DIGEST,
    headline=rebalance.HEADLINE,
)
#: ``node-02`` crashes after chunk 6 and restarts after chunk 9, once the
#: failure detector has had two DOWN windows.
CRASH = dataclasses.replace(
    BASELINE,
    name="rebalance-crash",
    script=(
        FaultStep(6, "crash", {"node": "node-02"}),
        FaultStep(9, "resolve"),
        FaultStep(9, "restart", {"node": "node-02"}),
        *SAMPLES,
    ),
)
DRAIN = dataclasses.replace(
    BASELINE,
    name="rebalance-drain",
    script=(FaultStep(8, "drain", {"node": "node-02"}), *SAMPLES),
)

SCENARIOS = [BASELINE, CRASH, DRAIN]


def _assert_ok(report, sim_seed):
    replay = f"pytest tests/sim/test_rebalance.py --sim-seed {sim_seed}"
    assert report.ok, f"\n{report.summary()}\nreplay with: {replay}"


def test_rebalance_upholds_invariants(sim_seed, check_fingerprint):
    report = run(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint(CAMPAIGN, report)
    # The campaign is non-vacuous: plans executed, state actually moved
    # between nodes, and the oracle holds both event kinds.
    assert report.plans_total >= 1
    assert report.state_transfers > 0
    assert any(kind == "proximity" for kind, _ in report.events)
    assert any(kind == "collision" for kind, _ in report.events)


def test_rebalance_survives_mid_migration_crash(sim_seed, check_fingerprint):
    report = run(CRASH, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint(CAMPAIGN, report)
    assert report.plans_total >= 1
    # The crashed node rejoined: the cluster ends at full strength.
    assert report.counters["live_nodes"] == CRASH.num_nodes


def test_rebalance_survives_graceful_drain(sim_seed, check_fingerprint):
    report = run(DRAIN, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint(CAMPAIGN, report)
    assert report.plans_total >= 1
    # The drained node left for good; its durably written events were
    # absorbed by the seed, so parity held (checked by report.ok above)
    # and nothing is hosted on the retired node.
    assert report.counters["live_nodes"] == DRAIN.num_nodes - 1
    assert "node-02" not in set(report.fleet_hosting.values())


def test_events_match_fault_free_oracle(sim_seed):
    report = run(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    assert report.events == report.reference_events


def test_fingerprint_reproducible():
    """Two runs of the same (scenario, seed) digest identically even
    with migrations, crashes and drains in the script — the planner
    consumes only virtual-clock message counts, never wall time."""
    for scenario in (BASELINE, CRASH, DRAIN):
        first = run(scenario, 0)
        second = run(scenario, 0)
        assert first.fingerprint() == second.fingerprint(), scenario.name
        assert first.ok, first.summary()


def test_hot_ballast_targets_victim_and_is_splittable():
    """The skew generator aims every hot vessel at the victim node and
    spreads them over >= 2 shards so the planner has movable weights."""
    table = ShardTable(epoch=1, nodes=("node-00", "node-01", "node-02"), num_shards=64)
    fleet = rebalance.hot_ballast(table, 0, BASELINE.steps)
    assert len(fleet.mmsis) == rebalance.HOT_VESSELS
    shards = {shard_for_key("vessel", m, table.num_shards) for m in fleet.mmsis}
    assert len(shards) >= 2
    for shard in shards:
        assert table.owner_of(shard) == rebalance.VICTIM
    assert len(fleet.chunks) == BASELINE.steps
    assert all(len(c) == rebalance.HOT_VESSELS * rebalance.HOT_BURST for c in fleet.chunks)
    # Bursts stay sub-30 s so the downsampler keeps exactly one per chunk.
    for fix in fleet.chunks[0]:
        assert fix.lat >= 44.0  # far north of every workload region


def test_scenario_validation():
    """The script check refuses a step outside the scenario's chunks or
    naming an action the campaign does not have, before any cluster
    forms."""
    for step in (
        FaultStep(99, "crash", {"node": "node-01"}),
        FaultStep(-1, "drain", {"node": "node-01"}),
    ):
        with pytest.raises(ValueError, match="outside the scenario's 12 chunks"):
            run(dataclasses.replace(BASELINE, script=(step,)), 0)
    with pytest.raises(ValueError, match="unknown fault action 'defenestrate'"):
        run(dataclasses.replace(BASELINE, script=(FaultStep(3, "defenestrate"),)), 0)
