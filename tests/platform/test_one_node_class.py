"""There is one node class: ``Platform``.

A ``Platform`` built on a ``ClusterNode`` is a cluster node; built alone it
is the single-node platform. These tests pin what that means: a one-node
cluster produces exactly what the standalone platform produces, clusters
of 2 and 4 nodes produce the same vessel rows, voyage events, encounter
records and alert flags (location transparency), and every façade method
gives one answer whichever way the platform was built.
"""

from collections import Counter

import pytest

from repro.ais.datasets import proximity_scenario
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.platform import LoopbackCluster, Platform, PlatformConfig

DAY = 86_400.0
EVENT_KINDS = ("proximity", "collision") + VOYAGE_EVENT_KINDS
CLUSTER_SIZES = (1, 2, 4)


@pytest.fixture(scope="module")
def scenario():
    return proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )


class Standalone:
    """The deployment surface of a bare ``Platform``, shaped like a cluster's."""

    def __init__(self, config):
        self.seed = Platform(config=config)
        self.platforms = [self.seed]

    def assign_voyage(self, *args, **kwargs):
        self.seed.assign_voyage(*args, **kwargs)

    def process_available(self):
        return self.seed.process_available()

    def shutdown(self):
        self.seed.shutdown()


def build(shape: str, config: PlatformConfig):
    if shape == "standalone":
        return Standalone(config)
    return LoopbackCluster(num_nodes=int(shape[0]), config=config)


SHAPES = ["standalone", "1-node cluster", "2-node cluster"]


def run_aegean(shape: str, scenario) -> dict:
    """The Aegean proximity scenario plus one assigned voyage that can only
    breach its deadline, through ``shape``; everything observable after,
    gathered over every node's store (each node writes the rows of the
    actors it hosts)."""
    config = PlatformConfig(voyage_optimization=True, weather_max_wind_mps=0.1)
    deployment = build(shape, config)
    try:
        messages = sorted(scenario.result.messages, key=lambda m: m.t)
        mmsis = sorted({m.mmsi for m in messages})
        # ~800 km to sail in one hour: the first plan emits eta_breach.
        deployment.assign_voyage(mmsis[0], [(36.0, 4.0)], deadline_t=3_600.0)
        for i in range(0, len(messages), 500):
            deployment.seed.publish_messages(messages[i : i + 500])
            deployment.process_available()
        platforms = deployment.platforms
        states = {}
        for platform in platforms:
            for mmsi in mmsis:
                row = platform.kvstore.hgetall(f"vessel:{mmsi}")
                if row:
                    assert mmsi not in states, f"vessel {mmsi} has a row on two nodes"
                    states[mmsi] = row
        return {
            "vessel_count": sum(platform.vessel_count for platform in platforms),
            "states": states,
            "events": {
                kind: [e for p in platforms for e in p.kvstore.lrange(f"events:{kind}", 0, -1)]
                for kind in EVENT_KINDS
            },
        }
    finally:
        deployment.shutdown()


@pytest.fixture(scope="module")
def runs(scenario):
    shapes = ["standalone"] + [f"{n}-node cluster" for n in CLUSTER_SIZES]
    return {shape: run_aegean(shape, scenario) for shape in shapes}


@pytest.fixture(scope="module")
def alone_and_clustered(runs):
    return runs["standalone"], runs["1-node cluster"]


def without_flags(states: dict) -> dict:
    return {
        mmsi: {k: v for k, v in row.items() if k != "event_flags"}
        for mmsi, row in states.items()
    }


def test_a_one_node_cluster_is_the_platform(alone_and_clustered, scenario):
    alone, clustered = alone_and_clustered
    assert alone["vessel_count"] == clustered["vessel_count"] == scenario.n_vessels
    assert all(alone["states"].values())
    assert without_flags(alone["states"]) == without_flags(clustered["states"])
    # Same events in the same order, not merely the same sets.
    for kind in ("proximity",) + VOYAGE_EVENT_KINDS:
        assert alone["events"][kind] == clustered["events"][kind], kind
    assert alone["events"]["proximity"] and alone["events"]["eta_breach"]
    pairs = [sorted(e.pair for e in run["events"]["collision"]) for run in alone_and_clustered]
    assert pairs[0] == pairs[1] != []


def test_collision_events_come_in_the_same_order_too(alone_and_clustered):
    """Held since a cluster node's collision entity got the node's
    ``CollisionCellRouter`` (an empty one is falsy, and ``ShardRouter`` used
    to test it for truth): both walk the same cells in the same order, so a
    pair meets, and is tested, at the same point."""
    alone, clustered = alone_and_clustered
    assert alone["events"]["collision"] == clustered["events"]["collision"]
    assert alone["states"] == clustered["states"]


def identities(run: dict, kind: str) -> set:
    """``(kind, pair, bucket)``: the key the pair's owner records once."""
    debounce = PlatformConfig().event_debounce_s
    return {
        (kind, e.pair, int((e.t if kind == "proximity" else e.forecast_at) // debounce))
        for e in run["events"][kind]
    }


def flag_kinds(states: dict) -> dict:
    """Each vessel's multiset of alert-flag kinds."""
    return {
        mmsi: Counter(flag.split("@")[0] for flag in row["event_flags"].split(",") if flag)
        for mmsi, row in states.items()
    }


@pytest.mark.parametrize("nodes", CLUSTER_SIZES)
def test_a_cluster_of_any_size_is_the_platform(runs, nodes):
    """Location transparency: spreading the actors over N nodes changes no
    vessel row, no voyage event, no encounter identity, and no vessel's
    multiset of alert-flag kinds. The raw flag strings may differ: they
    carry the time of the hit that won its identity, and arrival order
    picks that hit. Each identity has one record: the sim compares
    identity sets, so it would not see a duplicate."""
    alone, clustered = runs["standalone"], runs[f"{nodes}-node cluster"]
    assert clustered["vessel_count"] == alone["vessel_count"]
    assert without_flags(clustered["states"]) == without_flags(alone["states"])
    assert flag_kinds(clustered["states"]) == flag_kinds(alone["states"])
    for kind in VOYAGE_EVENT_KINDS:
        assert clustered["events"][kind] == alone["events"][kind], kind
    for kind in ("proximity", "collision"):
        assert identities(clustered, kind) == identities(alone, kind) != set(), kind
        assert len(clustered["events"][kind]) == len(identities(clustered, kind)), kind


@pytest.mark.parametrize("nodes", [n for n in CLUSTER_SIZES if n > 1])
def test_a_cluster_writes_each_encounter_once(runs, nodes):
    alone, clustered = runs["standalone"], runs[f"{nodes}-node cluster"]
    for kind in ("proximity", "collision"):
        assert len(clustered["events"][kind]) == len(alone["events"][kind]), kind


@pytest.mark.parametrize("shape", SHAPES)
def test_assign_voyage_refuses_without_the_optimizer(shape):
    deployment = build(shape, PlatformConfig())
    try:
        with pytest.raises(RuntimeError, match="voyage_optimization"):
            deployment.seed.assign_voyage(240_000_001, [(36.0, 14.0)], deadline_t=DAY)
    finally:
        deployment.shutdown()


@pytest.mark.parametrize("shape", SHAPES)
def test_telemetry_and_stats_exist_on_every_shape(shape, scenario):
    deployment = build(shape, PlatformConfig(record_telemetry=True))
    try:
        seed = deployment.seed
        seed.publish_messages(scenario.result.messages[:200])
        deployment.process_available()
        snapshot = seed.telemetry_snapshot()
        assert snapshot["enabled"]
        assert snapshot["metrics"]["gauges"]["broker_consumer_lag"] == 0
        stats = seed.stats()
        assert stats["vessels_local"] == seed.vessel_count > 0
        assert sum(p.stats()["states_written"] for p in deployment.platforms) > 0
    finally:
        deployment.shutdown()


@pytest.mark.parametrize("shape", SHAPES)
def test_the_replica_feed_works_on_every_shape(shape, scenario):
    deployment = build(shape, PlatformConfig(serving_replica_feed=True))
    try:
        feeds = [platform.subscribe_replication() for platform in deployment.platforms]
        messages = scenario.result.messages[:200]
        deployment.seed.publish_messages(messages)
        deployment.process_available()
        batches = [batch for feed in feeds for _, batch in feed.get_all()]
        fed = {state["mmsi"] for batch in batches for state in batch["states"]}
        assert fed == {m.mmsi for m in messages}
    finally:
        deployment.shutdown()


@pytest.mark.parametrize("shape", SHAPES)
def test_record_metrics_samples_on_every_node(shape, scenario):
    """``PlatformConfig.record_metrics`` reaches the actor system whichever
    way the platform was built, a cluster node's included."""
    deployment = build(shape, PlatformConfig(record_metrics=True))
    try:
        deployment.seed.publish_messages(scenario.result.messages)
        deployment.process_available()
        for platform in deployment.platforms:
            assert platform.system.metrics is not None
            assert len(platform.system.metrics) > 0
    finally:
        deployment.shutdown()


def test_telemetry_snapshot_is_disabled_by_default():
    platform = Platform()
    assert platform.telemetry_snapshot() == {"enabled": False}
    platform.shutdown()
