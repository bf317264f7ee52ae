"""Spans and counters for the layers inside a platform node.

Shared by the three streaming workloads. The wrapped names are public
methods on public objects (``platform.ingestion``, ``platform.system``,
``wiring.forecaster`` / ``forecast_service`` / ``writer_ref`` / ``kvstore``
/ ``pubsub``); the counters are the ones the program already exposes.
"""

from __future__ import annotations

KV_WRITE_OPS = ("hmset", "zadd", "rpush")


def trace_platform(tracer, platform, tag: str | None = None) -> None:
    """Wrap the layer boundaries of one ``Platform`` or
    ``DistributedPlatform`` (``tag`` names the node in a cluster)."""
    wiring = platform.wiring
    if platform.ingestion is not None:  # only the seed ingests in a cluster
        tracer.wrap(platform.ingestion, "poll_once", "ingestion.poll", tag,
                    count=True)
    tracer.wrap(platform.system, "run_until_idle", "actors.run", tag,
                count=True)
    tracer.wrap(wiring.forecaster, "forecast_batch", "models.forecast", tag)
    tracer.wrap(wiring.forecast_service, "flush", "forecast_service.flush",
                tag)
    for actor in wiring.writer_ref.actors():
        tracer.wrap(actor, "receive", "writer.receive", tag)
    for op in KV_WRITE_OPS:
        tracer.wrap(wiring.kvstore, op, "kvstore.write", tag)
    tracer.wrap(wiring.pubsub, "publish", "kvstore.publish", tag)


def platform_layers(rows, counts, platforms, records_in: int,
                    lag_max: int) -> dict:
    """The per-layer metrics every streaming workload reports, summed over
    ``platforms`` (one for a single node, four for the cluster). ``rows``
    is the traced ledger by span name (``spans.by_name``), ``counts`` the
    tracer's summed return values."""
    services = [p.wiring.forecast_service for p in platforms]
    batches = sum(s.batches_executed for s in services)
    forecast_rows = sum(s.requests_pooled for s in services)
    forecast_calls = rows["models.forecast"]["calls"]
    pools = [p.wiring.writer_ref for p in platforms]
    return {
        "streams.publish_s": rows["streams.publish"]["self_s"],
        "streams.records_in": records_in,
        "streams.lag_max": lag_max,
        "ingestion.poll_s": rows["ingestion.poll"]["self_s"],
        "ingestion.polls": rows["ingestion.poll"]["calls"],
        "ingestion.dispatched": counts["ingestion.poll"],
        "actors.run_s": rows["actors.run"]["self_s"],
        "actors.messages": counts["actors.run"],
        "models.forecast_s": rows["models.forecast"]["self_s"],
        "models.forecast_calls": forecast_calls,
        "models.forecast_rows": forecast_rows,
        "models.rows_per_call":
            forecast_rows / forecast_calls if forecast_calls else 0.0,
        "forecast_service.flush_s": rows["forecast_service.flush"]["self_s"],
        "forecast_service.batches": batches,
        "forecast_service.batch_fill":
            forecast_rows / batches / services[0].batch_max if batches
            else 0.0,
        # Enqueue, dedup, snapshot building and the flush loop of the
        # writer shards; the KV calls under them are kvstore.* time.
        "writer.flush_s": rows["writer.receive"]["self_s"],
        "writer.flushes": sum(p.flushes for p in pools),
        "writer.states_written": sum(p.states_written for p in pools),
        "writer.events_written": sum(p.events_written for p in pools),
        "writer.kv_ops": sum(actor.kv_ops_flushed for p in pools
                             for actor in p.actors()),
        "kvstore.write_s": rows["kvstore.write"]["self_s"],
        "kvstore.ops": rows["kvstore.write"]["calls"],
        "kvstore.publish_s": rows["kvstore.publish"]["self_s"],
    }
