"""The writer actor.

"The actor states are stored by the writer actor in a Redis database in
order to be visualized by the UI through a dedicated API ... In the context
of this work, a single writer actor has been defined to write all actor
outputs to the Redis database." (Section 3)

Each node runs exactly that: one actor named ``writer``, addressed through
the :class:`WriterRef` in ``wiring.writer_ref``. It **micro-batches** its
KV writes: pending vessel states coalesce per MMSI (last write wins),
pending events queue up, and the shared
:class:`~repro.platform.batching.MicroBatcher` discipline flushes the batch
when it reaches ``writer_batch_max_ops`` pending KV operations, when the
``writer_batch_linger_s`` virtual-time linger expires, or on an explicit
:class:`~repro.platform.batching.BatchFlush`. Every event it receives is
written: an encounter arrives already debounced by its pair's owner vessel
actor.

Key schema (consumed by :class:`repro.platform.api.MiddlewareAPI`):

* ``vessel:{mmsi}`` — hash with the vessel's latest state snapshot,
* ``vessels:last_seen`` — zset of MMSIs scored by last message time,
* ``events:{kind}`` — list of event payload dicts (most recent last),
* ``events:all`` — zset of ``{kind}:0:{n}`` ids scored by time,
* pub/sub channel ``events:{kind}`` for live UI notifications.

The ``0`` in those ids, like ``"shard": 0`` on every ``repl:flush`` batch,
is a fixed field of the stored and replicated formats (replicas key their
sequence check by it).

Pub/sub notification and the optional output topics fire at *enqueue*
time, so subscribers and external consumers observe every update even
when intermediate states coalesce away inside a batch.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.actors import Actor, ActorContext, ActorRef
from repro.platform.batching import BatchFlush, MicroBatcher
from repro.platform.messages import EventRecord, VesselStateUpdate

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring

#: Pub/sub channel carrying flushed writer batches to serving replicas
#: (``PlatformConfig.serving_replica_feed``; consumed by
#: :class:`repro.serving.replica.ReadReplica`).
REPL_FLUSH_CHANNEL = "repl:flush"
#: Pub/sub channel carrying periodic traffic-flow raster snapshots
#: (:meth:`Platform.publish_flow_snapshot`).
REPL_FLOW_CHANNEL = "repl:flow"


def event_payload_dict(payload) -> dict:
    """A plain JSON-able dict form of an event payload (replication and
    serving pushes must not carry live dataclass references)."""
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return dataclasses.asdict(payload)
    if isinstance(payload, dict):
        return dict(payload)
    return {"repr": repr(payload)}


class WriterActor(Actor):
    """The node's writer: batches actor outputs into the KV store and
    notifies subscribers."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self.wiring = wiring
        self.states_written = 0
        self.events_written = 0
        self.kv_ops_flushed = 0
        self._producer = None
        if wiring.config.output_topics:
            from repro.platform.pipeline import OUTPUT_EVENT_TOPIC_PREFIX, OUTPUT_STATE_TOPIC
            from repro.streams import Producer

            self._producer = Producer(wiring.broker)
            self._state_topic = OUTPUT_STATE_TOPIC
            self._event_topic_prefix = OUTPUT_EVENT_TOPIC_PREFIX
        #: mmsi -> newest pending state (coalesced: last write wins).
        self._pending_states: dict[int, VesselStateUpdate] = {}
        #: (record, events:all member id) pairs awaiting flush, in order.
        self._pending_events: list[tuple[EventRecord, str]] = []
        config = wiring.config
        self._batcher = MicroBatcher(
            wiring.system,
            self,
            lambda: self.pending_ops,
            self._write_batch,
            max_size=config.writer_batch_max_ops,
            linger_s=config.writer_batch_linger_s,
            capacity_reason="max_ops",
            size_metric="writer_batch_ops",
            flushes_metric="writer_flushes_total",
        )
        #: Replication sequence: counts only *published* flush batches,
        #: so replicas can detect feed gaps (see SERVING.md).
        self._feed_seq = 0

    # -- receive --------------------------------------------------------------------

    def pre_start(self, ctx: ActorContext) -> None:
        # Linger timers come back through the writer's own mailbox.
        self._batcher.timer_ref = ctx.self_ref

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, VesselStateUpdate):
            self._enqueue_state(message)
        elif isinstance(message, EventRecord):
            self._enqueue_event(message)
        elif isinstance(message, BatchFlush):
            self._batcher.on_flush_message(message)

    # -- enqueue --------------------------------------------------------------------

    def _enqueue_state(self, update: VesselStateUpdate) -> None:
        self._pending_states[update.mmsi] = update
        if self._producer is not None:
            # The output stream carries every accepted update — coalescing
            # applies only to the KV store, whose reads want latest-state.
            self._producer.send(self._state_topic, update.mmsi, update, update.t)
        self.states_written += 1
        self._batcher.added()

    def _enqueue_event(self, record: EventRecord) -> None:
        member = f"{record.kind}:0:{self.events_written}"
        self._pending_events.append((record, member))
        self.wiring.pubsub.publish(f"events:{record.kind}", record.payload)
        if self._producer is not None:
            topic = f"{self._event_topic_prefix}.{record.kind}"
            self._producer.send(topic, record.kind, record, record.t)
        self.events_written += 1
        self._batcher.added()

    # -- batching -------------------------------------------------------------------

    @property
    def pending_ops(self) -> int:
        """KV operations the current batch will issue when flushed."""
        return 2 * len(self._pending_states) + 2 * len(self._pending_events)

    @property
    def flushes(self) -> int:
        return self._batcher.batches

    def flush(self, reason: str = "explicit") -> int:
        """Write the pending batch to the KV store; returns the KV
        operations issued (0 for an empty flush)."""
        return self._batcher.flush(reason)

    def _write_batch(self, ops: int) -> None:
        kv = self.wiring.kvstore
        replicate = self.wiring.config.serving_replica_feed
        repl_states: list[dict] = []
        repl_events: list[dict] = []
        for update in self._pending_states.values():
            snapshot = {
                "t": update.t,
                "lat": update.lat,
                "lon": update.lon,
                "sog": update.sog,
                "cog": update.cog,
                "event_flags": ",".join(update.event_flags),
            }
            forecast = update.forecast
            if forecast is not None:
                anchor = forecast.anchor
                marks = zip(
                    forecast.ts[1:].tolist(), forecast.lats[1:].tolist(), forecast.lons[1:].tolist()
                )
                snapshot["forecast"] = [(anchor.t, anchor.lat, anchor.lon), *marks]
            kv.hmset(f"vessel:{update.mmsi}", snapshot)
            kv.zadd("vessels:last_seen", update.t, str(update.mmsi))
            if replicate:
                repl_states.append({"mmsi": update.mmsi, **snapshot})
        for record, member in self._pending_events:
            kv.rpush(f"events:{record.kind}", record.payload)
            kv.zadd("events:all", record.t, member)
            if replicate:
                repl_events.append(
                    {
                        "kind": record.kind,
                        "t": record.t,
                        "payload": event_payload_dict(record.payload),
                    }
                )
        self._pending_states.clear()
        self._pending_events.clear()
        self.kv_ops_flushed += ops
        if replicate:
            # Publish after the primary KV write, so a replica is never
            # ahead of the store it mirrors.
            self._feed_seq += 1
            self.wiring.pubsub.publish(
                REPL_FLUSH_CHANNEL,
                {"shard": 0, "seq": self._feed_seq, "states": repl_states, "events": repl_events},
            )


class WriterRef(ActorRef):
    """``wiring.writer_ref``: the ref of the node's ``writer`` actor, plus
    the flush request and the counters ``Platform.stats`` and benchmarks
    read."""

    __slots__ = ()

    def flush(self, reason: str = "explicit") -> None:
        """Ask the writer to flush its pending batch (asynchronous: settle
        afterwards)."""
        self.tell(BatchFlush(reason=reason, seq=None))

    @property
    def actor(self) -> WriterActor:
        return self._system._cells[self.name].actor

    def actors(self) -> list[WriterActor]:
        return [self.actor]

    @property
    def states_written(self) -> int:
        return self.actor.states_written

    @property
    def events_written(self) -> int:
        return self.actor.events_written

    @property
    def flushes(self) -> int:
        return self.actor.flushes

    @property
    def pending_ops(self) -> int:
        return self.actor.pending_ops
