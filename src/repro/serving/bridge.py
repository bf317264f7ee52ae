"""The replica feed pump: primary pub/sub -> replica -> serving loop.

The platform (its writer) lives in its own threads; the serving tier
lives in an asyncio loop. :class:`ReplicaFeedPump` is the one-way bridge:
a daemon thread blocks on the bounded ``repl:*`` subscription
(:meth:`Subscription.get` with a timeout — no polling loop), applies each
replication message to the :class:`ReadReplica` (whose store is
thread-safe), then hands the message to the serving loop with
``call_soon_threadsafe`` for subscription fanout. Applying to the replica
*before* the loop dispatch means an HTTP query racing a push can only be
ahead of, never behind, what subscribers see.

The pump owns no sockets and touches no actor state: if the serving loop
stalls, the bounded subscription drops oldest batches (counted, surfaced
as feed drops and replica sequence gaps) and the actor hot path never
blocks.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.kvstore import Subscription
from repro.serving.replica import ReadReplica
from repro.serving.server import ServingServer


class ReplicaFeedPump:
    """Daemon thread draining a replication subscription."""

    def __init__(self, subscription: Subscription, replica: ReadReplica,
                 server: ServingServer | None = None,
                 poll_timeout_s: float = 0.2,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.subscription = subscription
        self.replica = replica
        self.server = server
        self.poll_timeout_s = poll_timeout_s
        self._clock = clock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="serving-feed-pump",
                                        daemon=True)
        #: Messages applied to the replica *and* handed to the serving
        #: loop: a thread that waits for this count and then queues work
        #: on the loop queues it behind every counted dispatch.
        self.messages_pumped = 0

    def start(self) -> "ReplicaFeedPump":
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the pump; with ``drain`` it first applies everything
        already pending on the subscription."""
        self._stop.set()
        self._thread.join(timeout=10.0)
        if drain:
            self.drain_pending()

    def drain_pending(self) -> int:
        """Apply every currently pending message synchronously (used by
        tests and the load harness's end-of-run barrier)."""
        drained = 0
        for channel, payload in self.subscription.get_all():
            self._apply(channel, payload)
            drained += 1
        return drained

    @property
    def feed_drops(self) -> int:
        """Batches the bounded subscription discarded before the pump
        could apply them (each shows up as a replica sequence gap)."""
        return self.subscription.drop_count()

    def _apply(self, channel: str, payload: dict) -> None:
        self.replica.apply(channel, payload)
        if self.server is not None:
            self.server.dispatch_threadsafe(channel, payload)
        self.messages_pumped += 1

    def _run(self) -> None:
        while not self._stop.is_set():
            item = self.subscription.get(timeout=self.poll_timeout_s)
            if item is None:
                if self.subscription.closed:
                    return
                continue
            self._apply(*item)
