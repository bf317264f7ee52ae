"""Telemetry under the simulation harness must be deterministic per seed.

Every telemetry timestamp comes from the scenario's virtual clock and the
histogram reservoirs replace through seeded private generators, so two
runs of the same (scenario, seed) must produce *identical* snapshots —
metrics, trace hops, everything. This is the property that makes a
telemetry snapshot attached to a failing sim seed trustworthy evidence
rather than a heisen-log.
"""

from __future__ import annotations

from repro.sim import FaultSpec, Scenario, run

CAMPAIGN = "scenario"

#: Light but not trivial: lossy-enough links to exercise retry/replay
#: counters while keeping the tier-1 runtime small.
LOSSY = Scenario(name="telemetry-lossy", faults=FaultSpec(drop_p=0.05))

BATCHED = Scenario(name="telemetry-batched", cluster={"transport_batching": True})

SCENARIOS = [LOSSY, BATCHED]


def test_snapshot_identical_across_runs(sim_seed, check_fingerprint):
    first = run(LOSSY, sim_seed)
    second = run(LOSSY, sim_seed)
    assert first.telemetry is not None
    assert first.telemetry == second.telemetry
    assert first.fingerprint() == second.fingerprint()
    check_fingerprint(CAMPAIGN, first)


def test_snapshot_has_traces_and_virtual_timestamps(sim_seed, check_fingerprint):
    report = run(BATCHED, sim_seed)
    check_fingerprint(CAMPAIGN, report)
    snapshot = report.telemetry
    assert snapshot["traces_merged"], "sim run recorded no traces"
    # Hop timestamps are virtual-clock readings: bounded by the scenario's
    # simulated horizon, never wall-clock epochs.
    for hops in snapshot["traces_merged"].values():
        for hop in hops:
            assert 0.0 <= hop["t"] < 1e6
    # Actor dispatch instrumented on every node that hosted work.
    assert any(
        any(name.startswith("actor_messages_total") for name in node["metrics"]["counters"])
        for node in snapshot["nodes"].values()
    )
