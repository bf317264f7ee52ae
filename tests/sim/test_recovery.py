"""Checkpointed recovery under seeded faults — the acceptance suite for
the durability/checkpoint subsystem.

Each test runs across at least :data:`SIM_MIN_SEEDS` seeds (the suite
promises the invariants hold "across >= 3 seeds"; ``conftest.py`` widens
the sweep further when ``--sim-seeds`` asks for more). A failure carries
the seed and replay command like every other sim test.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.sim import FaultSpec, FaultStep, Scenario, run
from repro.sim import recovery

SIM_MIN_SEEDS = 3
CAMPAIGN = "recovery"

#: Link faults armed throughout — never drops (see ``repro.sim.recovery``);
#: quiescent checkpoints after chunks 1 and 3, ``node-01`` crashes after
#: chunk 4, and once the failure detector has had two DOWN windows to
#: resolve the dead incarnation it recovers from the latest checkpoint
#: after chunk 7, link faults still armed.
RECOVERY = Scenario(
    name="checkpoint-recovery",
    faults=FaultSpec(dup_p=0.05, delay_p=0.2, delay_min_s=0.05, delay_max_s=0.6, reorder_p=0.2),
    script=(
        FaultStep(1, "checkpoint", orderly=True),
        FaultStep(3, "checkpoint", orderly=True),
        FaultStep(4, "crash", {"node": "node-01"}),
        FaultStep(7, "resolve"),
        FaultStep(7, "recover", {"node": "node-01"}),
    ),
    full_replay=False,
    checks=(recovery.single_hosting, recovery.checkpoint_economy),
    digest=recovery.DIGEST,
    headline=recovery.HEADLINE,
)

SCENARIOS = [RECOVERY]


def test_recovery_upholds_invariants(sim_seed, check_fingerprint):
    report = run(RECOVERY, sim_seed)
    assert report.ok, (
        f"\n{report.summary()}\n"
        f"replay with: pytest {__name__.replace('.', '/')}.py "
        f"--sim-seed {sim_seed}"
    )
    check_fingerprint(CAMPAIGN, report)


def test_recovery_matches_fault_free_oracle(sim_seed):
    """The crashed-and-recovered run detects exactly the encounters the
    fault-free run of the same seed does — and the oracle is non-vacuous
    for both event kinds."""
    report = run(RECOVERY, sim_seed)
    assert report.ok, report.summary()
    assert report.events == report.reference_events
    assert any(kind == "proximity" for kind, _ in report.events)
    assert any(kind == "collision" for kind, _ in report.events)


def test_recovery_replays_only_the_suffix(sim_seed):
    """The checkpoint bought real work: the suffix replay re-dispatched
    strictly fewer records than the full log holds."""
    report = run(RECOVERY, sim_seed)
    assert report.ok, report.summary()
    assert report.checkpoints_taken == 2
    assert report.covered > 0
    assert 0 < report.suffix_replayed < report.total_records
    # The suffix is exactly what the checkpoint had not covered (plus
    # nothing): covered + replayed spans the records published up to the
    # recovery point, all of which predate the final two chunks.
    assert report.covered + report.suffix_replayed <= report.total_records


def test_recovery_through_disk_checkpoint(tmp_path, sim_seed, check_fingerprint):
    """Routing the checkpoint through ``checkpoint.pkl`` on disk changes
    nothing observable."""
    workdir = str(tmp_path / f"seed{sim_seed}")
    report = run(RECOVERY, sim_seed, workdir=workdir)
    assert report.ok, report.summary()
    assert os.path.exists(os.path.join(workdir, "checkpoint.pkl"))
    check_fingerprint(f"{CAMPAIGN}-disk", report)
    in_memory = run(RECOVERY, sim_seed)
    assert report.fingerprint() == in_memory.fingerprint()


def test_fingerprint_reproducible():
    """Two runs of the same (scenario, seed) digest identically — the
    harness's own determinism guarantee extends to the recovery path."""
    first = run(RECOVERY, 0)
    second = run(RECOVERY, 0)
    assert first.fingerprint() == second.fingerprint()
    assert first.ok, first.summary()


def test_drop_faults_rejected():
    """Drops are unrecoverable outside the replayed suffix by design: the
    script check refuses them up front, armed from the start or later."""
    with pytest.raises(ValueError, match="drop"):
        run(dataclasses.replace(RECOVERY, faults=FaultSpec(drop_p=0.01)), 0)
    lossy = FaultStep(5, "set_faults", {"faults": FaultSpec(drop_p=0.01)})
    with pytest.raises(ValueError, match="drop"):
        run(dataclasses.replace(RECOVERY, script=(*RECOVERY.script, lossy)), 0)


def test_checkpoint_must_precede_crash():
    """A recover step with no checkpoint firing before it is refused
    before any cluster forms."""
    crash_and_recover = RECOVERY.script[2:]
    with pytest.raises(ValueError, match="after a checkpoint"):
        run(dataclasses.replace(RECOVERY, script=crash_and_recover), 0)
    too_late = (*crash_and_recover, FaultStep(8, "checkpoint", orderly=True))
    with pytest.raises(ValueError, match="after a checkpoint"):
        run(dataclasses.replace(RECOVERY, script=too_late), 0)
