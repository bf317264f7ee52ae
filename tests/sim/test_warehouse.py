"""Crash-interrupted warehouse compaction — the acceptance suite for the
historical analytics tier (ISSUE 9 / ROADMAP 5).

Each test runs across at least :data:`SIM_MIN_SEEDS` seeds (the suite
promises byte-equality against the fault-free oracle "across >= 3
seeds"); a failing seed replays byte-for-byte with ``--sim-seed``.
"""

from __future__ import annotations

from repro.sim import WarehouseScenario, run_warehouse_scenario

SIM_MIN_SEEDS = 3

SCENARIO = WarehouseScenario()


def test_warehouse_campaign_upholds_invariants(sim_seed, tmp_path, check_fingerprint):
    report = run_warehouse_scenario(SCENARIO, sim_seed,
                                    workdir=str(tmp_path))
    assert report.ok, (
        f"\n{report.summary()}\n"
        f"replay with: pytest {__name__.replace('.', '/')}.py "
        f"--sim-seed {sim_seed}")
    check_fingerprint("warehouse", report)


def test_warehouse_rows_match_kept_fixes_exactly(sim_seed, tmp_path):
    """The headline acceptance check: warehouse row counts equal the
    writer pool's kept fixes / events after crash-interrupted compaction,
    and the campaign is non-vacuous (rows and crashes both happened)."""
    report = run_warehouse_scenario(SCENARIO, sim_seed,
                                    workdir=str(tmp_path))
    assert report.ok, report.summary()
    assert report.position_rows == report.states_written > 0
    assert report.event_rows == report.events_written > 0
    assert report.crashes > 0


def test_warehouse_campaign_is_byte_equal_to_oracle(sim_seed, tmp_path):
    report = run_warehouse_scenario(SCENARIO, sim_seed,
                                    workdir=str(tmp_path))
    assert report.ok, report.summary()
    assert report.victim_fingerprint == report.oracle_fingerprint


def test_warehouse_campaign_is_deterministic(sim_seed, tmp_path):
    """Same (scenario, seed) -> identical report fingerprint: the replay
    guarantee the --sim-seed knob depends on."""
    first = run_warehouse_scenario(SCENARIO, sim_seed,
                                   workdir=str(tmp_path / "a"))
    second = run_warehouse_scenario(SCENARIO, sim_seed,
                                    workdir=str(tmp_path / "b"))
    assert first.fingerprint() == second.fingerprint()


def test_default_workdir_is_removed(tmp_path, monkeypatch):
    """Passing ``workdir`` is what keeps the files; the default scratch
    directory must not outlive the run."""
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    report = run_warehouse_scenario(SCENARIO, 0)
    assert report.ok, report.summary()
    assert list(tmp_path.iterdir()) == []
