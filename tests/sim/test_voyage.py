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

import dataclasses

import pytest

from repro.cluster import shard_for_key
from repro.cluster.sharding import ShardTable
from repro.sim import FaultSpec, FaultStep, Scenario, run
from repro.sim import campaign as campaign_mod
from repro.sim import voyage
from repro.sim.campaign import mmsis_owned_by
from repro.sim.invariants import collect_final_plans
from repro.sim.voyage import TARGET, build_voyage_fleet, find_storm_route

SIM_MIN_SEEDS = 3
CAMPAIGN = "voyage"

#: Link faults armed while the stream flows (never during the orderly
#: recovery/migration windows — see ``repro.sim.voyage``).
LINKS = FaultSpec(dup_p=0.05, delay_p=0.2, delay_min_s=0.05, delay_max_s=0.5, reorder_p=0.15)
#: Every boundary ends quiesced, and faults arm only once chunk 0 has
#: landed calm: plans land at process barriers, and the divergence watch
#: needs a plan to diverge from before any fault can interrupt it.
QUIESCED = (
    *(FaultStep(k, "quiesce") for k in range(10)),
    FaultStep(0, "set_faults", {"faults": LINKS}),
)
TABLE = ShardTable(epoch=1, nodes=("node-00", "node-01", "node-02"), num_shards=64)

BASELINE = Scenario(
    name="voyage-replanning",
    script=QUIESCED,
    fleet=build_voyage_fleet,
    checks=(voyage.voyage_event_parity, voyage.plan_parity),
    digest=voyage.DIGEST,
    headline=voyage.HEADLINE,
)
#: A checkpoint after chunk 3; after chunk 5 the target crashes (armed:
#: it takes in-flight frames with it), and once the failure detector has
#: had two DOWN windows it recovers, orderly, so the checkpointed voyage
#: state is offered before any replay can rebuild planless twins.
CRASH = dataclasses.replace(
    BASELINE,
    name="voyage-crash",
    script=(
        FaultStep(3, "quiesce"),
        FaultStep(3, "checkpoint"),
        FaultStep(5, "crash", {"node": TARGET}),
        FaultStep(5, "set_faults", {"faults": FaultSpec()}),
        FaultStep(5, "resolve"),
        FaultStep(5, "recover", {"node": TARGET}, orderly=True),
        FaultStep(5, "set_faults", {"faults": LINKS}),
        *QUIESCED,
    ),
)
#: Scale out after chunk 4, then drain the target after chunk 6.
MIGRATE = dataclasses.replace(
    BASELINE,
    name="voyage-migrate",
    script=(
        FaultStep(4, "add_node", orderly=True),
        FaultStep(6, "drain", {"node": TARGET}, orderly=True),
        *QUIESCED,
    ),
)

SCENARIOS = [BASELINE, CRASH, MIGRATE]


def _assert_ok(report, sim_seed):
    replay = f"pytest tests/sim/test_voyage.py --sim-seed {sim_seed}"
    assert report.ok, f"\n{report.summary()}\nreplay with: {replay}"


def test_voyage_baseline_upholds_invariants(sim_seed, check_fingerprint):
    report = run(BASELINE, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint(CAMPAIGN, report)
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
    report = run(CRASH, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint(CAMPAIGN, report)
    assert report.suffix_replayed > 0
    assert report.counters["live_nodes"] == CRASH.num_nodes
    # The rejoin reshuffles the twins' shards back onto the target.
    assert report.counters["voyage_twins_on_target"] == 3


def test_voyage_survives_live_migration(sim_seed, check_fingerprint):
    """Scale-out then a graceful drain of the hosting node: every twin
    migrates live, and its plan state must ride the state transfer."""
    report = run(MIGRATE, sim_seed)
    _assert_ok(report, sim_seed)
    check_fingerprint(CAMPAIGN, report)
    assert report.counters["state_transfers"] > 0
    # 3 nodes + 1 added - 1 drained; nothing left on the retired target.
    assert report.counters["live_nodes"] == MIGRATE.num_nodes
    assert report.counters["voyage_twins_on_target"] == 0


def test_voyage_events_match_fault_free_oracle(sim_seed):
    report = run(BASELINE, sim_seed)
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
        run(BASELINE, 0)


def test_fingerprint_reproducible():
    """Two runs of the same (scenario, seed) digest identically even
    with a crash-recovery or a drain in the schedule — plans are pure
    functions of the fix stream and the weather seed."""
    for scenario in (BASELINE, CRASH, MIGRATE):
        first = run(scenario, 0)
        second = run(scenario, 0)
        assert first.fingerprint() == second.fingerprint(), scenario.name
        assert first.ok, first.summary()


def test_fleet_is_margin_robust_and_targeted():
    """The fleet generator pins every twin to the target node and the
    storm probe's plan genuinely dog-legs at the twin's fix time."""
    fleet = build_voyage_fleet(TABLE, 0, BASELINE.steps)
    assert [t.role for t in fleet.twins] == ["diverge", "breach", "storm"]
    for twin in fleet.twins:
        shard = shard_for_key("vessel", twin.mmsi, TABLE.num_shards)
        assert TABLE.owner_of(shard) == TARGET
    # The diverge twin is planned east but drifts north; the breach
    # twin's deadline is an hour for an ~800 km route.
    diverge, breach, storm = fleet.twins
    assert diverge.waypoints[0][0] == diverge.origin[0]
    assert breach.deadline_t < 4_000.0
    assert storm.origin[0] == 40.0  # a row-3 region, clear of workloads
    # The mmsi choice is pure hashing: same table, same answer.
    assert list(fleet.mmsis) == mmsis_owned_by(TABLE, "node-01", count=3, base=400_000_000)


def test_storm_probe_is_cached_and_deterministic():
    from repro.platform.pipeline import WEATHER_DEGRADATION_TAU_S
    from repro.weather.forecast import ForecastingWeatherField

    weather = ForecastingWeatherField(
        seed=0, degradation_tau_s=WEATHER_DEGRADATION_TAU_S, max_wind_mps=voyage.MAX_WIND_MPS
    )
    first = find_storm_route(weather, 0, 1.52, 9 * 86_400.0, 12.0)
    second = find_storm_route(weather, 0, 1.52, 9 * 86_400.0, 12.0)
    assert first == second


def test_scenario_validation():
    """The script check refuses steps outside the scenario's chunks, and
    the fleet refuses a fix span longer than one replan bucket."""
    with pytest.raises(ValueError, match="outside the scenario's 10 chunks"):
        run(dataclasses.replace(BASELINE, script=(FaultStep(10, "add_node"),)), 0)
    with pytest.raises(ValueError, match="replan bucket"):
        build_voyage_fleet(TABLE, 0, steps=60)


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

    twins = build_voyage_fleet(TABLE, 0, BASELINE.steps).twins
    plans = collect_final_plans(_Cluster(), twins)
    assert plans == {twin.mmsi: None for twin in twins}
