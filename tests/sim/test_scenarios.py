"""The scenario matrix: every fault campaign must uphold all four
invariants for every swept seed.

Each test runs once per seed (see ``conftest.py``); a failure message
carries the seed and the exact replay command, and the run is also
appended to ``sim-failures.log``.
"""

from __future__ import annotations

import pytest

from repro.sim import FaultSpec, FaultStep, Scenario, run_scenario

#: Drops alone: the weakest adversary — every protocol message class must
#: already survive 8% loss through retries or anti-entropy.
DROPS = Scenario(name="drops", faults=FaultSpec(drop_p=0.08))

#: Duplication, delay and reordering together: exercises idempotence of
#: table installs / membership adds and out-of-order position handling.
CHAOS_LINKS = Scenario(
    name="chaos-links",
    faults=FaultSpec(drop_p=0.05, dup_p=0.1, delay_p=0.3,
                     delay_min_s=0.05, delay_max_s=0.8,
                     reorder_p=0.3, reorder_jitter_s=0.1))

#: A symmetric partition across the workload's middle chunks, then heal.
PARTITION = Scenario(
    name="partition-heal",
    script=(
        FaultStep(2, "partition", {"a": "node-00", "b": "node-02"}),
        FaultStep(6, "heal", {}),
    ))

#: Kill a shard owner mid-stream, restart it under the same id later —
#: the handoff / re-join / replay path.
CRASH_RESTART = Scenario(
    name="crash-restart",
    script=(
        FaultStep(3, "crash", {"node": "node-01"}),
        FaultStep(6, "tick", {"dt_s": 9.0}),
        FaultStep(6, "restart", {"node": "node-01"}),
    ))

#: Everything at once: lossy chaotic links, a partition window, and a
#: crash+restart — the acceptance scenario of the harness.
COMBINED = Scenario(
    name="combined",
    faults=FaultSpec(drop_p=0.05, dup_p=0.05, delay_p=0.2,
                     delay_min_s=0.05, delay_max_s=0.8, reorder_p=0.2),
    script=(
        FaultStep(1, "partition", {"a": "node-00", "b": "node-02"}),
        FaultStep(4, "heal", {}),
        FaultStep(5, "crash", {"node": "node-01"}),
        FaultStep(7, "tick", {"dt_s": 9.0}),
        FaultStep(7, "restart", {"node": "node-01"}),
    ))

#: The combined campaign again with outbound micro-batching enabled —
#: batched frames must fail, drop and replay exactly like unbatched ones.
COMBINED_BATCHING = Scenario(
    name="combined-batching", faults=COMBINED.faults,
    script=COMBINED.script, batching=True)

SCENARIOS = [DROPS, CHAOS_LINKS, PARTITION, CRASH_RESTART,
             COMBINED, COMBINED_BATCHING]


@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s.name for s in SCENARIOS])
def test_scenario_upholds_invariants(scenario, sim_seed, check_fingerprint):
    report = run_scenario(scenario, sim_seed)
    assert report.ok, (
        f"\n{report.summary()}\n"
        f"replay with: pytest {__name__.replace('.', '/')}.py "
        f"--sim-seed {sim_seed}")
    check_fingerprint("scenario", report)


def test_combined_scenario_reports_replay_and_faults(sim_seed):
    """The acceptance scenario actually exercised its machinery: faults
    fired, the replay re-read the whole stream, and events matched a
    non-empty oracle."""
    report = run_scenario(COMBINED, sim_seed)
    assert report.ok, report.summary()
    assert report.counters["faults_dropped"] > 0
    assert report.counters["faults_delayed"] > 0
    assert report.counters["partition_dropped"] > 0
    assert report.replayed > 0
    assert report.events == report.reference_events
    assert any(kind == "proximity" for kind, _ in report.events)
    assert any(kind == "collision" for kind, _ in report.events)
