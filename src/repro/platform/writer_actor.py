"""The writer actors.

"The actor states are stored by the writer actor in a Redis database in
order to be visualized by the UI through a dedicated API ... In the context
of this work, a single writer actor has been defined to write all actor
outputs to the Redis database." (Section 3)

The paper acknowledges that single writer as a bottleneck; here the writer
is a **consistent-hash pool** (:class:`WriterPool`) of ``writer-{shard}``
actors. Updates route by MMSI and events by their pair/kind, so everything
that must be deduplicated or ordered per key lands on the same shard. Each
shard **micro-batches** its KV writes: pending vessel states coalesce per
MMSI (last write wins), pending events queue up, and the shared
:class:`~repro.platform.batching.MicroBatcher` discipline flushes the batch
when it reaches ``writer_batch_max_ops`` pending KV operations, when the
``writer_batch_linger_s`` virtual-time linger expires, or on an explicit
:class:`~repro.platform.batching.BatchFlush`.

Key schema (consumed by :class:`repro.platform.api.MiddlewareAPI`):

* ``vessel:{mmsi}`` — hash with the vessel's latest state snapshot,
* ``vessels:last_seen`` — zset of MMSIs scored by last message time,
* ``events:{kind}`` — list of event payload dicts (most recent last),
* ``events:all`` — zset of ``{kind}:{shard}:{n}`` ids scored by time,
* pub/sub channel ``events:{kind}`` for live UI notifications.

Pub/sub notification and the optional output topics fire at *enqueue*
time, so subscribers and external consumers observe every update even
when intermediate states coalesce away inside a batch.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.actors import Actor, ActorContext
from repro.cluster.sharding import stable_hash
from repro.platform.batching import BatchFlush, MicroBatcher
from repro.platform.messages import (
    EventRecord,
    RestoreState,
    VesselStateUpdate,
)

if TYPE_CHECKING:
    from repro.actors import ActorRef
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
    """One shard of the writer pool: batches actor outputs into the KV
    store and notifies subscribers."""

    def __init__(self, wiring: "PlatformWiring", shard: int = 0) -> None:
        self.wiring = wiring
        self.shard = shard
        self.states_written = 0
        self.events_written = 0
        self.kv_ops_flushed = 0
        self._producer = None
        if wiring.config.output_topics:
            from repro.platform.pipeline import (
                OUTPUT_EVENT_TOPIC_PREFIX,
                OUTPUT_STATE_TOPIC,
            )
            from repro.streams import Producer
            self._producer = Producer(wiring.broker)
            self._state_topic = OUTPUT_STATE_TOPIC
            self._event_topic_prefix = OUTPUT_EVENT_TOPIC_PREFIX
        #: (kind, pair, debounce bucket) -> event time, for cross-cell
        #: deduplication (the same encounter can be detected by several
        #: cell actors). Keyed by the *bucket* of the event time rather
        #: than a sliding last-accepted window so the accepted count is a
        #: pure function of the event multiset — several cells race the
        #: same pair's records to this shard, and their arrival order
        #: depends on scheduler interleaving (the batched-vs-unbatched
        #: event-parity gate relies on this being order-insensitive).
        #: Bounded: entries older than the debounce window are pruned
        #: whenever the map exceeds ``event_dedup_max``, then oldest-first
        #: eviction enforces the hard cap (see :meth:`_bound_dedup`).
        self._event_dedup: dict[tuple, float] = {}
        #: mmsi -> newest pending state (coalesced: last write wins).
        self._pending_states: dict[int, VesselStateUpdate] = {}
        #: (record, events:all member id) pairs awaiting flush, in order.
        self._pending_events: list[tuple[EventRecord, str]] = []
        config = wiring.config
        self._batcher = MicroBatcher(
            wiring.system, self, lambda: self.pending_ops, self._write_batch,
            max_size=config.writer_batch_max_ops,
            linger_s=config.writer_batch_linger_s, capacity_reason="max_ops",
            size_metric="writer_batch_ops",
            flushes_metric="writer_flushes_total",
            labels={"shard": str(shard)})
        #: Replication sequence: counts only *published* flush batches,
        #: so replicas can detect feed gaps (see SERVING.md).
        self._repl_seq = 0

    # -- receive --------------------------------------------------------------------

    def pre_start(self, ctx: ActorContext) -> None:
        # Linger timers come back through this shard's own mailbox.
        self._batcher.timer_ref = ctx.self_ref

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, VesselStateUpdate):
            self._enqueue_state(message)
        elif isinstance(message, EventRecord):
            self._enqueue_event(message)
        elif isinstance(message, BatchFlush):
            self._batcher.on_flush_message(message)
        elif isinstance(message, RestoreState):
            pass  # writers are rebuilt from KV snapshots, not actor state

    # -- enqueue --------------------------------------------------------------------

    def _enqueue_state(self, update: VesselStateUpdate) -> None:
        self._pending_states[update.mmsi] = update
        if self._producer is not None:
            # The output stream carries every accepted update — coalescing
            # applies only to the KV store, whose reads want latest-state.
            self._producer.send(self._state_topic, update.mmsi, update,
                                update.t)
        self.states_written += 1
        self._batcher.added()

    def _enqueue_event(self, record: EventRecord) -> None:
        payload = record.payload
        pair = getattr(payload, "pair", None)
        debounce = self.wiring.config.event_debounce_s
        if pair is not None and debounce > 0:
            key = (record.kind, pair, int(record.t // debounce))
            if key in self._event_dedup:
                return
            self._event_dedup[key] = record.t
            self._bound_dedup(record.t)

        member = f"{record.kind}:{self.shard}:{self.events_written}"
        self._pending_events.append((record, member))
        self.wiring.pubsub.publish(f"events:{record.kind}", payload)
        if self._producer is not None:
            self._producer.send(f"{self._event_topic_prefix}.{record.kind}",
                                record.kind, record, record.t)
        self.events_written += 1
        self._batcher.added()

    def _bound_dedup(self, now: float) -> None:
        limit = self.wiring.config.event_dedup_max
        if len(self._event_dedup) <= limit:
            return
        debounce = self.wiring.config.event_debounce_s
        self._event_dedup = {k: t for k, t in self._event_dedup.items()
                             if now - t < debounce}
        if len(self._event_dedup) > limit:
            # Still over the cap inside one debounce window: drop the
            # oldest entries (their pairs may debounce-miss once; bounded
            # memory wins over perfect dedup under adversarial load).
            ordered = sorted(self._event_dedup.items(),
                             key=lambda kv: (kv[1], kv[0]))
            self._event_dedup = dict(ordered[len(ordered) - limit:])

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
                "t": update.t, "lat": update.lat, "lon": update.lon,
                "sog": update.sog, "cog": update.cog,
                "event_flags": ",".join(update.event_flags),
            }
            if update.forecast is not None:
                snapshot["forecast"] = [
                    (p.t, p.lat, p.lon) for p in update.forecast.positions]
            kv.hmset(f"vessel:{update.mmsi}", snapshot, now=update.t)
            kv.zadd("vessels:last_seen", update.t, str(update.mmsi),
                    now=update.t)
            if replicate:
                repl_states.append({"mmsi": update.mmsi, **snapshot})
        for record, member in self._pending_events:
            kv.rpush(f"events:{record.kind}", record.payload, now=record.t)
            kv.zadd("events:all", record.t, member, now=record.t)
            if replicate:
                repl_events.append({
                    "kind": record.kind, "t": record.t,
                    "payload": event_payload_dict(record.payload)})
        self._pending_states.clear()
        self._pending_events.clear()
        self.kv_ops_flushed += ops
        if replicate:
            # Publish after the primary KV write, so a replica is never
            # ahead of the store it mirrors.
            self._repl_seq += 1
            self.wiring.pubsub.publish(REPL_FLUSH_CHANNEL, {
                "shard": self.shard, "seq": self._repl_seq,
                "states": repl_states, "events": repl_events})


class WriterPool:
    """A consistent-hash pool of node-local writer actors.

    Quacks like an :class:`~repro.actors.ActorRef` for its senders
    (``tell``), routing each message to a fixed shard: vessel states by
    MMSI, events by their ``(kind, pair)`` when a pair exists (keeping the
    cross-cell dedup of one encounter on one shard) and by ``(kind, mmsi)``
    otherwise. Routing uses the cluster's process-independent
    :func:`~repro.cluster.sharding.stable_hash`, so a restart routes every
    key identically.
    """

    def __init__(self, wiring: "PlatformWiring", size: int) -> None:
        if size < 1:
            raise ValueError("writer pool needs at least one shard")
        self.size = size
        self._system = wiring.system
        #: route_key -> shard memo (stable_hash is pure; vessel states
        #: re-route by the same MMSI on every kept fix). Bounded: event
        #: pair keys are unbounded over a long run.
        self._shard_cache: dict = {}
        self.refs: list["ActorRef"] = [
            wiring.system.spawn(
                lambda shard=shard: WriterActor(wiring, shard=shard),
                f"writer-{shard}")
            for shard in range(size)
        ]

    # -- routing --------------------------------------------------------------------

    def route_key(self, message) -> object:
        if isinstance(message, VesselStateUpdate):
            return message.mmsi
        if isinstance(message, EventRecord):
            pair = getattr(message.payload, "pair", None)
            if pair is not None:
                return (message.kind, tuple(pair))
            mmsi = getattr(message.payload, "mmsi", None)
            if mmsi is not None:
                return (message.kind, mmsi)
            return message.kind
        return 0

    def shard_of(self, message) -> int:
        key = self.route_key(message)
        shard = self._shard_cache.get(key)
        if shard is None:
            if len(self._shard_cache) >= (1 << 20):
                self._shard_cache.clear()
            shard = self._shard_cache[key] = \
                stable_hash(key) % self.size
        return shard

    def tell(self, message) -> None:
        self.refs[self.shard_of(message)].tell(message)

    # -- control --------------------------------------------------------------------

    def flush(self, reason: str = "explicit") -> None:
        """Ask every shard to flush its pending batch (async: pump the
        dispatcher afterwards)."""
        for ref in self.refs:
            ref.tell(BatchFlush(reason=reason, seq=None))

    def broadcast(self, message) -> None:
        for ref in self.refs:
            ref.tell(message)

    # -- introspection ----------------------------------------------------------------

    def actors(self) -> list[WriterActor]:
        cells = self._system._cells
        return [cells[ref.name].actor for ref in self.refs
                if ref.name in cells]

    def _sum(self, attr: str) -> int:
        return sum(getattr(actor, attr) for actor in self.actors())

    @property
    def states_written(self) -> int:
        return self._sum("states_written")

    @property
    def events_written(self) -> int:
        return self._sum("events_written")

    @property
    def flushes(self) -> int:
        return self._sum("flushes")

    @property
    def pending_ops(self) -> int:
        return self._sum("pending_ops")
