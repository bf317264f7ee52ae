"""Actor mailboxes: unbounded, thread-safe FIFO queues of envelopes."""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.actors.actor import Envelope


class Mailbox:
    """FIFO mailbox.

    One mailbox per actor; producers append from any thread, the dispatcher
    drains in batches. The mailbox never drops messages — backpressure is the
    platform's responsibility (the paper relies on the same property of
    Akka's default unbounded mailbox).
    """

    def __init__(self) -> None:
        self._queue: deque["Envelope"] = deque()
        self._lock = threading.Lock()
        #: Total messages ever enqueued, for metrics.
        self.enqueued = 0

    def put(self, envelope: "Envelope") -> None:
        with self._lock:
            self._queue.append(envelope)
            self.enqueued += 1

    def get_batch(self, max_messages: int) -> list["Envelope"]:
        """Dequeue up to ``max_messages`` envelopes (possibly empty)."""
        with self._lock:
            n = min(max_messages, len(self._queue))
            return [self._queue.popleft() for _ in range(n)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)
