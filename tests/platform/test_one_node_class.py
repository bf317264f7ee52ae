"""There is one node class: ``Platform``.

A ``Platform`` built on a ``ClusterNode`` is a cluster node; built alone it
is the single-node platform. These tests pin what that means: a one-node
cluster produces exactly what the standalone platform produces, and every
façade method gives one answer whichever way the platform was built.
"""

import pytest

from repro.ais.datasets import proximity_scenario
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.platform import LoopbackCluster, Platform, PlatformConfig

DAY = 86_400.0
EVENT_KINDS = ("proximity", "collision") + VOYAGE_EVENT_KINDS


@pytest.fixture(scope="module")
def scenario():
    return proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )


class Standalone:
    """The driver surface of a bare ``Platform``, shaped like a cluster's."""

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
    breach its deadline, through ``shape``; everything observable after."""
    config = PlatformConfig(voyage_optimization=True, weather_max_wind_mps=0.1)
    driver = build(shape, config)
    try:
        messages = sorted(scenario.result.messages, key=lambda m: m.t)
        mmsis = sorted({m.mmsi for m in messages})
        # ~800 km to sail in one hour: the first plan emits eta_breach.
        driver.assign_voyage(mmsis[0], [(36.0, 4.0)], deadline_t=3_600.0)
        for i in range(0, len(messages), 500):
            driver.seed.publish_messages(messages[i : i + 500])
            driver.process_available()
        seed = driver.seed
        return {
            "vessel_count": seed.vessel_count,
            "states": {mmsi: seed.kvstore.hgetall(f"vessel:{mmsi}") for mmsi in mmsis},
            "events": {
                kind: seed.kvstore.lrange(f"events:{kind}", 0, -1) for kind in EVENT_KINDS
            },
        }
    finally:
        driver.shutdown()


@pytest.fixture(scope="module")
def alone_and_clustered(scenario):
    return run_aegean("standalone", scenario), run_aegean("1-node cluster", scenario)


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
    """Held since a cluster node's collision entity got its single-occupant
    stash (an empty ``CollisionCellRouter`` is falsy, and ``ShardRouter``
    used to test it for truth): cell actors spawn in the same order, so a
    pair's first-reporting cell is the same."""
    alone, clustered = alone_and_clustered
    assert alone["events"]["collision"] == clustered["events"]["collision"]
    assert alone["states"] == clustered["states"]


@pytest.mark.parametrize("shape", SHAPES)
def test_assign_voyage_refuses_without_the_optimizer(shape):
    driver = build(shape, PlatformConfig())
    try:
        with pytest.raises(RuntimeError, match="voyage_optimization"):
            driver.seed.assign_voyage(240_000_001, [(36.0, 14.0)], deadline_t=DAY)
    finally:
        driver.shutdown()


@pytest.mark.parametrize("shape", SHAPES)
def test_telemetry_and_stats_exist_on_every_shape(shape, scenario):
    driver = build(shape, PlatformConfig(record_telemetry=True))
    try:
        seed = driver.seed
        seed.publish_messages(scenario.result.messages[:200])
        driver.process_available()
        snapshot = seed.telemetry_snapshot()
        assert snapshot["enabled"]
        assert snapshot["metrics"]["gauges"]["broker_consumer_lag"] == 0
        stats = seed.stats()
        assert stats["vessels_local"] == seed.vessel_count > 0
        assert sum(p.stats()["states_written"] for p in driver.platforms) > 0
    finally:
        driver.shutdown()


@pytest.mark.parametrize("shape", SHAPES)
def test_the_replica_feed_works_on_every_shape(shape, scenario):
    driver = build(shape, PlatformConfig(serving_replica_feed=True))
    try:
        feeds = [platform.subscribe_replication() for platform in driver.platforms]
        messages = scenario.result.messages[:200]
        driver.seed.publish_messages(messages)
        driver.process_available()
        batches = [batch for feed in feeds for _, batch in feed.get_all()]
        fed = {state["mmsi"] for batch in batches for state in batch["states"]}
        assert fed == {m.mmsi for m in messages}
    finally:
        driver.shutdown()


def test_telemetry_snapshot_is_disabled_by_default():
    platform = Platform()
    assert platform.telemetry_snapshot() == {"enabled": False}
    platform.shutdown()
