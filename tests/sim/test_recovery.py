"""Checkpointed recovery under seeded faults — the acceptance suite for
the durability/checkpoint subsystem.

Each test runs across at least :data:`SIM_MIN_SEEDS` seeds (the suite
promises the invariants hold "across >= 3 seeds"; ``conftest.py`` widens
the sweep further when ``--sim-seeds`` asks for more). A failure carries
the seed and replay command like every other sim test.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import FaultSpec, RecoveryScenario, run_recovery_scenario

SIM_MIN_SEEDS = 3

RECOVERY = RecoveryScenario()


def test_recovery_upholds_invariants(sim_seed, check_fingerprint):
    report = run_recovery_scenario(RECOVERY, sim_seed)
    assert report.ok, (
        f"\n{report.summary()}\n"
        f"replay with: pytest {__name__.replace('.', '/')}.py "
        f"--sim-seed {sim_seed}")
    check_fingerprint("recovery", report)


def test_recovery_matches_fault_free_oracle(sim_seed):
    """The crashed-and-recovered run detects exactly the encounters the
    fault-free run of the same seed does — and the oracle is non-vacuous
    for both event kinds."""
    report = run_recovery_scenario(RECOVERY, sim_seed)
    assert report.ok, report.summary()
    assert report.events == report.reference_events
    assert any(kind == "proximity" for kind, _ in report.events)
    assert any(kind == "collision" for kind, _ in report.events)


def test_recovery_replays_only_the_suffix(sim_seed):
    """The checkpoint bought real work: the suffix replay re-dispatched
    strictly fewer records than the full log holds."""
    report = run_recovery_scenario(RECOVERY, sim_seed)
    assert report.ok, report.summary()
    assert report.checkpoints_taken == 2
    assert report.covered > 0
    assert 0 < report.replayed < report.total_records
    # The suffix is exactly what the checkpoint had not covered (plus
    # nothing): covered + replayed spans the records published up to the
    # recovery point, all of which predate the final two chunks.
    assert report.covered + report.replayed <= report.total_records


def test_recovery_through_disk_checkpoint(tmp_path, sim_seed, check_fingerprint):
    """Routing the checkpoint through ``checkpoint.pkl`` on disk changes
    nothing observable."""
    workdir = str(tmp_path / f"seed{sim_seed}")
    report = run_recovery_scenario(RECOVERY, sim_seed, workdir=workdir)
    assert report.ok, report.summary()
    assert os.path.exists(os.path.join(workdir, "checkpoint.pkl"))
    check_fingerprint("recovery-disk", report)
    in_memory = run_recovery_scenario(RECOVERY, sim_seed)
    assert report.fingerprint() == in_memory.fingerprint()


def test_fingerprint_reproducible():
    """Two runs of the same (scenario, seed) digest identically — the
    harness's own determinism guarantee extends to the recovery path."""
    first = run_recovery_scenario(RECOVERY, 0)
    second = run_recovery_scenario(RECOVERY, 0)
    assert first.fingerprint() == second.fingerprint()
    assert first.ok, first.summary()


def test_drop_faults_rejected():
    """Drops are unrecoverable outside the replayed suffix by design;
    the scenario type refuses them up front."""
    with pytest.raises(ValueError, match="drop"):
        RecoveryScenario(faults=FaultSpec(drop_p=0.01))


def test_checkpoint_must_precede_crash():
    with pytest.raises(ValueError, match="checkpoint_every"):
        RecoveryScenario(checkpoint_every=0)
    with pytest.raises(ValueError):
        RecoveryScenario(crash_after_chunk=1, checkpoint_every=2)
    with pytest.raises(ValueError):
        RecoveryScenario(crash_after_chunk=8, recover_after_chunk=8)
