"""Mid-voyage fault injection — the acceptance suite for the voyage
optimization subsystem's crash/migration story.

Three campaign legs run across at least :data:`SIM_MIN_SEEDS` seeds: the
baseline (voyage twins under delays/dups/reordering), the crash leg (the
twins' hosting node dies mid-voyage and recovers from a checkpoint), and
the migration leg (the cluster grows live, then the hosting node drains
gracefully so every twin migrates). Every leg checks the standard
invariants plus voyage event parity ((kind, mmsi) sets) and plan parity
(post-heal closing-replan fingerprints) against a fault-free run of the
same seed. Failing seeds replay byte-for-byte via
``pytest tests/sim/test_voyage.py --sim-seed N``.
"""

from __future__ import annotations

import pytest

from repro.sim import VoyageScenario, run_voyage_scenario
from repro.sim import campaign as campaign_mod
from repro.sim.campaign import mmsis_owned_by
from repro.sim.invariants import collect_final_plans
from repro.sim.voyage import build_voyage_fleet, find_storm_route

SIM_MIN_SEEDS = 3

BASELINE = VoyageScenario()
CRASH = VoyageScenario(name="voyage-crash", crash_after_chunk=5)
MIGRATE = VoyageScenario(name="voyage-migrate", add_node_after_chunk=4,
                         drain_after_chunk=6)


def _assert_ok(report, sim_seed):
    assert report.ok, (
        f"\n{report.summary()}\n"
        f"replay with: pytest tests/sim/test_voyage.py "
        f"--sim-seed {sim_seed}")


def test_voyage_baseline_upholds_invariants(sim_seed, check_fingerprint):
    report = run_voyage_scenario(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint("voyage", report)
    # Non-vacuous: all three event kinds fired, every twin closed with a
    # plan, and the standard encounter oracle holds both kinds.
    kinds = {kind for kind, _ in report.voyage_events}
    assert kinds == {"route_divergence", "eta_breach", "storm_avoidance"}
    assert all(report.plan_fingerprints.values())
    assert any(kind == "proximity" for kind, _ in report.events)
    assert any(kind == "collision" for kind, _ in report.events)


def test_voyage_survives_crash_recovery(sim_seed, check_fingerprint):
    """The twins' hosting node dies mid-voyage; checkpoint recovery must
    hand their assignments and plans back (they are not in the AIS
    stream, so only the RestoreState path can carry them)."""
    report = run_voyage_scenario(CRASH, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint("voyage", report)
    assert report.suffix_replayed > 0
    assert report.counters["live_nodes"] == CRASH.num_nodes
    # The rejoin reshuffles the twins' shards back onto the target.
    assert report.counters["voyage_twins_on_target"] == 3


def test_voyage_survives_live_migration(sim_seed, check_fingerprint):
    """Scale-out then a graceful drain of the hosting node: every twin
    migrates live, and its plan state must ride the state transfer."""
    report = run_voyage_scenario(MIGRATE, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint("voyage", report)
    assert report.counters["state_transfers"] > 0
    # 3 nodes + 1 added - 1 drained; nothing left on the retired target.
    assert report.counters["live_nodes"] == MIGRATE.num_nodes
    assert report.counters["voyage_twins_on_target"] == 0


def test_voyage_events_match_fault_free_oracle(sim_seed):
    report = run_voyage_scenario(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    assert report.voyage_events == report.reference_voyage_events
    assert report.plan_fingerprints == report.reference_plans


def test_oracle_without_a_voyage_kind_is_rejected(monkeypatch):
    """An oracle whose storm twin never avoided a storm would make the
    storm half of voyage parity vacuous: the campaign must refuse it."""
    collect = campaign_mod.collect_events

    def without_storms(target, *args):
        return {(kind, key) for kind, key in collect(target, *args) if kind != "storm_avoidance"}

    monkeypatch.setattr(campaign_mod, "collect_events", without_storms)
    monkeypatch.setattr(campaign_mod, "_ORACLE_CACHE", {})
    refused = "degenerate voyage workload for seed 0: .* storm_avoidance"
    with pytest.raises(RuntimeError, match=refused):
        run_voyage_scenario(BASELINE, 0)


def test_fingerprint_reproducible():
    """Two runs of the same (scenario, seed) digest identically even
    with a crash-recovery or a drain in the schedule — plans are pure
    functions of the fix stream and the weather seed."""
    for scenario in (BASELINE, CRASH, MIGRATE):
        first = run_voyage_scenario(scenario, 0)
        second = run_voyage_scenario(scenario, 0)
        assert first.fingerprint() == second.fingerprint(), scenario.name
        assert first.ok, first.summary()


def test_fleet_is_margin_robust_and_targeted():
    """The fleet generator pins every twin to the target node and the
    storm probe's plan genuinely dog-legs at the twin's fix time."""
    from repro.cluster import shard_for_key
    from repro.cluster.sharding import ShardTable
    table = ShardTable(epoch=1, nodes=("node-00", "node-01", "node-02"),
                       num_shards=64)
    fleet = build_voyage_fleet(BASELINE, 0)
    assert [t.role for t in fleet] == ["diverge", "breach", "storm"]
    for twin in fleet:
        shard = shard_for_key("vessel", twin.mmsi, table.num_shards)
        assert table.owner_of(shard) == BASELINE.target
    # The diverge twin is planned east but drifts north; the breach
    # twin's deadline is an hour for an ~800 km route.
    diverge, breach, storm = fleet
    assert diverge.waypoints[0][0] == diverge.origin[0]
    assert breach.deadline_t < 4_000.0
    assert storm.origin[0] == 40.0  # a row-3 region, clear of workloads
    # The mmsi choice is pure hashing: same table, same answer.
    assert ([t.mmsi for t in fleet]
            == mmsis_owned_by(table, "node-01", count=3, base=400_000_000))


def test_storm_probe_is_cached_and_deterministic():
    from repro.platform.pipeline import WEATHER_DEGRADATION_TAU_S
    from repro.weather.forecast import ForecastingWeatherField
    weather = ForecastingWeatherField(
        seed=0, degradation_tau_s=WEATHER_DEGRADATION_TAU_S,
        max_wind_mps=BASELINE.max_wind_mps)
    first = find_storm_route(weather, 0, 1.52, 9 * 86_400.0, 12.0)
    second = find_storm_route(weather, 0, 1.52, 9 * 86_400.0, 12.0)
    assert first == second


def test_scenario_validation():
    with pytest.raises(ValueError, match="worker node"):
        VoyageScenario(target="node-00")
    with pytest.raises(ValueError, match="checkpoint_after_chunk"):
        VoyageScenario(crash_after_chunk=2, checkpoint_after_chunk=2)
    with pytest.raises(ValueError, match="checkpoint_after_chunk"):
        VoyageScenario(crash_after_chunk=99)
    with pytest.raises(ValueError, match="add_node_after_chunk"):
        VoyageScenario(add_node_after_chunk=0)
    with pytest.raises(ValueError, match="drain_after_chunk"):
        VoyageScenario(drain_after_chunk=99)
    with pytest.raises(ValueError, match="both crash and drain"):
        VoyageScenario(crash_after_chunk=5, drain_after_chunk=7)
    with pytest.raises(ValueError, match="replan bucket"):
        VoyageScenario(replan_cadence_s=300.0)
    with pytest.raises(ValueError, match="closing_bucket"):
        VoyageScenario(closing_bucket=0)
    with pytest.raises(ValueError, match="positive"):
        VoyageScenario(drift_deg_per_chunk=0.0)


def test_collect_final_plans_reports_missing_twin():
    """An unhosted twin maps to None — surfaced as a plan-parity
    violation rather than silently passing."""

    class _EmptyRouter:
        def __contains__(self, mmsi):
            return False

    class _P:
        class wiring:
            vessel_router = _EmptyRouter()

        class system:
            _cells = {}

    class _Cluster:
        platforms = [_P()]

    fleet = build_voyage_fleet(BASELINE, 0)
    plans = collect_final_plans(_Cluster(), fleet)
    assert plans == {twin.mmsi: None for twin in fleet}
