"""The cluster-wide flush barrier and the broker topics of a cluster node.

Deterministic: loopback hub, virtual clock. Linger timers and batch
capacities are set out of reach, so only the barrier can flush.
"""

from repro.ais.message import AISMessage
from repro.events.voyage import StormAvoidanceEvent
from repro.platform import LoopbackCluster, PlatformConfig
from repro.platform.messages import EventRecord, VesselStateUpdate
from repro.sim.campaign import mmsis_owned_by
from repro.streams import ConsumerGroup

DAY = 86_400.0
HELD = dict(
    voyage_optimization=True,
    weather_max_wind_mps=0.1,
    forecast_batch_max=1_000,
    forecast_linger_s=1e9,
    voyage_batch_max=1_000,
    voyage_linger_s=1e9,
    writer_batch_max_ops=1_000,
    writer_batch_linger_s=1e9,
)


def test_barrier_drains_all_three_pools_of_a_worker_node():
    cluster = LoopbackCluster(num_nodes=2, config=PlatformConfig(**HELD))
    try:
        worker = cluster.platforms[1]
        twin, other = mmsis_owned_by(cluster.seed.node.table, worker.node.node_id,
                                     count=2, base=400_000_000)
        cluster.assign_voyage(twin, [(36.0, 14.0)], deadline_t=4 * DAY)
        # One fix, ingested and pumped WITHOUT the barrier: the twin on the
        # worker pools its forecast request and its first replan.
        fix = AISMessage(mmsi=twin, t=0.0, lat=36.0, lon=10.0, sog=12.0, cog=90.0)
        cluster.seed.publish_messages([fix])
        cluster.seed.ingest_available()
        # Its state update waits on the forecast reply, so queue another
        # vessel's directly on the worker's writer.
        state = dict(t=0.0, lat=36.0, lon=10.0, sog=8.0, cog=90.0, forecast=None)
        worker.wiring.writer_ref.tell(VesselStateUpdate(mmsi=other, **state))
        cluster.settle()
        wiring = worker.wiring
        assert wiring.forecast_service.pending_count == 1
        assert wiring.route_optimizer.pending_count == 1
        assert wiring.writer_ref.pending_ops == 2

        cluster.flush_writers()

        assert wiring.forecast_service.pending_count == 0
        assert wiring.route_optimizer.pending_count == 0
        assert wiring.writer_ref.pending_ops == 0
        # The replies made the same barrier: the twin's deferred state row
        # and the directly queued one are both in the worker's store.
        assert worker.kvstore.hgetall(f"vessel:{twin}")
        assert worker.kvstore.hgetall(f"vessel:{other}")
    finally:
        cluster.shutdown()


def test_voyage_event_reaches_its_output_topic_on_a_cluster_node():
    """Cluster nodes create the voyage output topics too: a voyage event
    told to a worker's writer is recorded, not lost to a missing
    ``out.events.storm_avoidance`` topic."""
    config = PlatformConfig(output_topics=True, voyage_optimization=True)
    cluster = LoopbackCluster(num_nodes=2, config=config)
    try:
        worker = cluster.platforms[1]
        event = StormAvoidanceEvent(
            mmsi=400_000_001, t=10.0, issued_t=0.0, legs_diverted=1, planned_fuel_kg=1_000.0
        )
        worker.wiring.writer_ref.tell(EventRecord(kind="storm_avoidance", t=10.0, payload=event))
        cluster.flush_writers()
        assert worker.wiring.writer_ref.events_written == 1
        assert worker.event_count("storm_avoidance") == 1
        consumer = ConsumerGroup(worker.broker, "ext", "out.events.storm_avoidance").join()
        assert [record.value.payload for record in consumer.poll()] == [event]
    finally:
        cluster.shutdown()
