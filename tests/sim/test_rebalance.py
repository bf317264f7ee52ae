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

import pytest

from repro.cluster import shard_for_key
from repro.sim import RebalanceScenario, run_rebalance_scenario
from repro.sim.campaign import mmsis_owned_by
from repro.sim.rebalance import HOT_MMSI_BASE, hot_ballast_chunks

SIM_MIN_SEEDS = 3

BASELINE = RebalanceScenario(crash_node=None)
CRASH = RebalanceScenario(name="rebalance-crash", crash_node="node-02")
DRAIN = RebalanceScenario(name="rebalance-drain", crash_node=None,
                          drain_node="node-02", drain_after_chunk=8)


def _assert_ok(report, sim_seed):
    assert report.ok, (
        f"\n{report.summary()}\n"
        f"replay with: pytest tests/sim/test_rebalance.py "
        f"--sim-seed {sim_seed}")


def test_rebalance_upholds_invariants(sim_seed, check_fingerprint):
    report = run_rebalance_scenario(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint("rebalance", report)
    # The campaign is non-vacuous: plans executed, state actually moved
    # between nodes, and the oracle holds both event kinds.
    assert report.plans_total >= BASELINE.require_plans
    assert report.state_transfers > 0
    assert any(kind == "proximity" for kind, _ in report.events)
    assert any(kind == "collision" for kind, _ in report.events)


def test_rebalance_survives_mid_migration_crash(sim_seed, check_fingerprint):
    report = run_rebalance_scenario(CRASH, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint("rebalance", report)
    assert report.plans_total >= CRASH.require_plans
    # The crashed node rejoined: the cluster ends at full strength.
    assert report.counters["live_nodes"] == CRASH.num_nodes


def test_rebalance_survives_graceful_drain(sim_seed, check_fingerprint):
    report = run_rebalance_scenario(DRAIN, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint("rebalance", report)
    assert report.plans_total >= DRAIN.require_plans
    # The drained node left for good; its durably written events were
    # absorbed by the seed, so parity held (checked by report.ok above)
    # and nothing is hosted on the retired node.
    assert report.counters["live_nodes"] == DRAIN.num_nodes - 1
    assert DRAIN.drain_node not in set(report.hot_hosting.values())


def test_events_match_fault_free_oracle(sim_seed):
    report = run_rebalance_scenario(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    assert report.events == report.reference_events


def test_fingerprint_reproducible():
    """Two runs of the same (scenario, seed) digest identically even
    with migrations, crashes and drains in the script — the planner
    consumes only virtual-clock message counts, never wall time."""
    for scenario in (BASELINE, CRASH, DRAIN):
        first = run_rebalance_scenario(scenario, 0)
        second = run_rebalance_scenario(scenario, 0)
        assert first.fingerprint() == second.fingerprint(), scenario.name
        assert first.ok, first.summary()


def test_hot_ballast_targets_victim_and_is_splittable():
    """The skew generator aims every hot vessel at the victim node and
    spreads them over >= 2 shards so the planner has movable weights."""
    from repro.cluster.sharding import ShardTable
    table = ShardTable(epoch=1, nodes=("node-00", "node-01", "node-02"),
                       num_shards=64)
    scenario = BASELINE
    mmsis = mmsis_owned_by(table, scenario.victim, scenario.hot_vessels,
                           HOT_MMSI_BASE,
                           per_shard_cap=max(1, scenario.hot_vessels // 2))
    assert len(mmsis) == scenario.hot_vessels
    shards = {shard_for_key("vessel", m, table.num_shards) for m in mmsis}
    assert len(shards) >= 2
    for shard in shards:
        assert table.owner_of(shard) == scenario.victim
    chunks = hot_ballast_chunks(mmsis, scenario)
    assert len(chunks) == scenario.steps
    assert all(len(c) == scenario.hot_vessels * scenario.hot_burst
               for c in chunks)
    # Bursts stay sub-30 s so the downsampler keeps exactly one per chunk.
    for fix in chunks[0]:
        assert fix.lat >= 44.0   # far north of every workload region


def test_scenario_validation():
    with pytest.raises(ValueError, match="two hot vessels"):
        RebalanceScenario(hot_vessels=1)
    with pytest.raises(ValueError, match="victim"):
        RebalanceScenario(victim="node-00")
    with pytest.raises(ValueError, match="seed"):
        RebalanceScenario(crash_node="node-00")
    with pytest.raises(ValueError, match="seed"):
        RebalanceScenario(drain_node="node-00")
    with pytest.raises(ValueError, match="crash_after_chunk"):
        RebalanceScenario(crash_node="node-01", crash_after_chunk=99)
    with pytest.raises(ValueError, match="drain_after_chunk"):
        RebalanceScenario(drain_node="node-01", drain_after_chunk=-1)
    with pytest.raises(ValueError, match="both crash and drain"):
        RebalanceScenario(crash_node="node-01", drain_node="node-01")
    with pytest.raises(ValueError, match="require_plans"):
        RebalanceScenario(require_plans=-1)
