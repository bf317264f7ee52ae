"""The micro-batching discipline every pooled stage of a node shares.

A :class:`MicroBatcher` decides *when* its owner's pending batch executes;
the owner keeps what is its own — what a row is, how a batch executes, who
gets the reply. Three triggers (DESIGN.md §3, "Micro-batching"):

* **capacity** — the owner reports an addition (:meth:`MicroBatcher.added`)
  that brought the pending size to ``max_size``;
* **linger** — a virtual-time timer, armed by the first addition with no
  timer in flight, fires ``linger_s`` later (0 disables the timer);
* **explicit** — a driver calls the owner's ``flush()`` (the drain barrier).

Every flush bumps the generation ``seq``, and a linger timer carries the
generation it was armed in: a timer that a capacity or explicit flush beat
is stale and flushes nothing, but if a tail has queued behind that flush it
re-arms, so the tail lands one linger later. The armed flag clears only
when a timer is delivered, hence at most one timer is in flight.

All three triggers go through ``owner.flush(reason)`` — looked up on the
instance at call time, so a harness can wrap one owner's flush — which
delegates to :meth:`MicroBatcher.flush`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.actors import Actor, ActorContext, ActorRef, ActorSystem


@dataclass(frozen=True)
class BatchFlush:
    """Flush a pending micro-batch now.

    ``seq`` is the generation a linger timer was armed in; ``None`` is an
    explicit flush delivered through a mailbox (the writer shards) and
    flushes unconditionally.
    """

    reason: str = "explicit"  #: "linger" | "explicit" | the capacity reason
    seq: int | None = None


class MicroBatcher:
    """Capacity / linger / explicit flush policy over an owner's batch."""

    def __init__(
        self,
        system: ActorSystem,
        owner,
        pending: Callable[[], int],
        execute: Callable[[int], float | None],
        *,
        max_size: int,
        linger_s: float,
        capacity_reason: str,
        size_metric: str,
        flushes_metric: str,
        latency_metric: str | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        self._system = system
        self._owner = owner
        #: Size of the owner's pending batch, in the unit of ``max_size``.
        self._pending = pending
        #: Runs a non-empty batch of the given size; may return the virtual
        #: time its oldest row was queued at (the ``latency_metric`` sample).
        self._execute = execute
        self.max_size = max_size
        self.linger_s = linger_s
        self.capacity_reason = capacity_reason
        self._flushes_metric = flushes_metric
        self._histogram_metrics = (size_metric, latency_metric)
        self._labels = labels or {}
        #: Mailbox the linger timers are delivered to: the owner's own when
        #: it is an actor, else a :class:`FlushActor` (:meth:`spawn_timer`).
        self.timer_ref: ActorRef | None = None
        #: Held across every flush and timer delivery; a non-actor owner
        #: takes it around its additions too. Both run on the thread that
        #: pumps the node; the lock keeps a flush atomic for any caller
        #: off that thread.
        self.lock = threading.RLock()
        self.seq = 0
        self.batches = 0
        self._timer_armed = False
        self._instruments: tuple | None = None

    def spawn_timer(self, name: str) -> None:
        """Give a non-actor owner an address for its linger timers."""
        self.timer_ref = self._system.spawn(lambda: FlushActor(self), name)

    def added(self) -> None:
        """The owner queued work: flush at capacity, otherwise make sure a
        linger timer is running."""
        if self._pending() >= self.max_size:
            self._owner.flush(self.capacity_reason)
        elif not self._timer_armed and self.linger_s > 0:
            self._arm()

    def _arm(self) -> None:
        self._timer_armed = True
        message = BatchFlush(reason="linger", seq=self.seq)
        self._system.schedule(self.linger_s, self.timer_ref, message)

    def on_flush_message(self, message: BatchFlush) -> None:
        with self.lock:
            if message.seq is not None:
                self._timer_armed = False
            if message.seq is None or message.seq == self.seq:
                self._owner.flush(message.reason)
            elif self.linger_s > 0 and self._pending():
                self._arm()

    def flush(self, reason: str) -> int:
        """Execute the pending batch; returns its size (an empty flush
        returns 0 and counts no batch, but still bumps the generation)."""
        with self.lock:
            self.seq += 1
            size = self._pending()
            if size == 0:
                return 0
            oldest = self._execute(size)
            self.batches += 1
            telemetry = self._system.telemetry
            if telemetry is not None:
                self._record(telemetry.registry, reason, size, oldest)
            return size

    def _flush_counter(self, registry, reason: str):
        return registry.counter(self._flushes_metric, {**self._labels, "reason": reason})

    def _record(self, registry, reason: str, size: int, oldest: float | None) -> None:
        if self._instruments is None:
            size_metric, latency_metric = self._histogram_metrics
            reasons = (self.capacity_reason, "linger", "explicit")
            self._instruments = (
                registry.histogram(size_metric, self._labels),
                registry.histogram(latency_metric) if latency_metric else None,
                {r: self._flush_counter(registry, r) for r in reasons},
            )
        size_hist, latency_hist, flush_counters = self._instruments
        size_hist.observe(size)
        if latency_hist is not None and oldest is not None:
            # Pooling delay of the batch's oldest row, in virtual time.
            latency_hist.observe(self._system.now - oldest)
        if reason not in flush_counters:
            flush_counters[reason] = self._flush_counter(registry, reason)
        flush_counters[reason].inc()


class FlushActor(Actor):
    """Address for a non-actor owner's linger timers (scheduled messages
    need a mailbox; everything else about such an owner is a direct call)."""

    def __init__(self, batcher: MicroBatcher) -> None:
        self.batcher = batcher

    def receive(self, message, ctx: ActorContext) -> None:
        if isinstance(message, BatchFlush):
            self.batcher.on_flush_message(message)
