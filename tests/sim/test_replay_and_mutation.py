"""The harness's own guarantees: seed replay is byte-for-byte, and the
invariant checkers actually catch injected protocol bugs (a mutation
test of the test harness)."""

from __future__ import annotations

import pytest

from repro.cluster import node as node_mod
from repro.cluster.protocol import ShardTableUpdate
from repro.sim import run_scenario
from repro.sim.scenario import reference_events

from tests.sim.test_scenarios import COMBINED


def test_same_seed_same_fingerprint(sim_seed):
    """Two runs of one (scenario, seed) must agree on every observable:
    events, hosting, counters, violations — the determinism contract."""
    first = run_scenario(COMBINED, sim_seed)
    second = run_scenario(COMBINED, sim_seed)
    assert first.fingerprint() == second.fingerprint()
    assert first.events == second.events
    assert first.counters == second.counters


def test_mutated_handoff_is_caught_and_prints_seed(monkeypatch):
    """Suppress every ShardTableUpdate send — nodes can no longer learn
    rebalanced tables, so handoff breaks. The convergence checker must
    fail and the report must carry the seed for replay."""
    seed = 0
    reference_events(seed, COMBINED.steps, COMBINED.num_nodes)

    original = node_mod.ClusterNode.send_control

    def suppressing(self, dest, msg):
        if isinstance(msg, ShardTableUpdate):
            return
        original(self, dest, msg)

    monkeypatch.setattr(node_mod.ClusterNode, "send_control", suppressing)
    report = run_scenario(COMBINED, seed)
    assert not report.ok, "broken shard handoff went undetected"
    assert any(v.invariant == "shard-convergence"
               for v in report.violations)
    assert f"seed={seed}" in report.summary()


def test_degenerate_workload_is_rejected(monkeypatch):
    """If the fault-free oracle yields no events, parity is vacuous — the
    harness must refuse to certify such a run rather than pass it."""
    from repro.sim import campaign as campaign_mod
    from repro.sim import scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "collect_events", lambda c: set())
    monkeypatch.setattr(campaign_mod, "_ORACLE_CACHE", {})
    with pytest.raises(RuntimeError, match="degenerate workload"):
        scenario_mod.reference_events(0, COMBINED.steps,
                                      COMBINED.num_nodes)
