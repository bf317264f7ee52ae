"""Read replicas of the writer's KV schema.

The serving tier never reads the primary :class:`KeyValueStore` the writer
mutates — that store's lock sits on the actor hot path. Instead the node's
writer publishes each flushed micro-batch on the pub/sub channel
``repl:flush`` (see ``writer_actor.py``), and a :class:`ReadReplica`
applies those batches to its **own** store under the same key schema, so
:class:`~repro.platform.api.MiddlewareAPI` reads the replica exactly as it
reads the primary.

Consistency model (documented in SERVING.md): the replica is eventually
consistent with bounded staleness of one writer micro-batch
(``writer_batch_max_ops`` / ``writer_batch_linger_s``). Batches carry a
sequence number; a gap (only possible if the bounded feed subscription
overflowed) increments :attr:`gaps` — the serving load gate requires zero
gaps, i.e. full event-push parity with the pub/sub feed.
"""

from __future__ import annotations

from typing import Any

from repro.kvstore import KeyValueStore
from repro.platform.writer_actor import REPL_FLOW_CHANNEL, REPL_FLUSH_CHANNEL

#: Pattern a replica feed subscription should use (both channels).
REPL_PATTERN = "repl:*"


class ReadReplica:
    """A serving-side KV store fed by writer flush batches."""

    def __init__(self, events_max: int = 1000) -> None:
        if events_max < 1:
            raise ValueError("events_max must be >= 1")
        self.store = KeyValueStore()
        self.events_max = events_max
        #: The batches' ``shard`` field -> last applied flush sequence number.
        self.last_seq: dict[int, int] = {}
        self.batches_applied = 0
        self.states_applied = 0
        self.events_applied = 0
        #: Sequence gaps observed (feed overflow lost a batch).
        self.gaps = 0
        #: Events trimmed off the per-kind retention window.
        self.events_trimmed = 0

    # -- feed -----------------------------------------------------------------------

    def apply(self, channel: str, payload: dict[str, Any]) -> None:
        """Apply one replication message (either channel)."""
        if channel == REPL_FLUSH_CHANNEL:
            self.apply_flush(payload)
        elif channel == REPL_FLOW_CHANNEL:
            self.apply_flow(payload)

    def apply_flush(self, batch: dict[str, Any]) -> None:
        """Apply one flushed writer micro-batch."""
        shard = batch["shard"]
        seq = batch["seq"]
        # Writers number published batches from 1, so a missing prefix
        # (feed overflow before the first application) is a gap too.
        expected = self.last_seq.get(shard, 0) + 1
        if seq != expected:
            self.gaps += 1
        self.last_seq[shard] = seq
        kv = self.store
        for state in batch["states"]:
            mmsi = state["mmsi"]
            kv.hmset(f"vessel:{mmsi}", {k: v for k, v in state.items() if k != "mmsi"})
            kv.zadd("vessels:last_seen", state["t"], str(mmsi))
            self.states_applied += 1
        for event in batch["events"]:
            key = f"events:{event['kind']}"
            n = kv.rpush(key, event["payload"])
            if n > self.events_max:
                kv.ltrim(key, n - self.events_max, -1)
                self.events_trimmed += n - self.events_max
            self.events_applied += 1
        self.batches_applied += 1

    def apply_flow(self, snapshot: dict[str, Any]) -> None:
        """Store one traffic-flow raster snapshot (per window)."""
        t = snapshot.get("t", 0.0)
        for window, cells in snapshot["flow"].items():
            self.store.hmset(f"traffic:flow:{window}", {"t": t, "cells": dict(cells)})

    def flow(self, window: int) -> dict[int, int]:
        """The replicated ``{cell: vessel count}`` raster of one window
        (the :class:`~repro.platform.api.MiddlewareAPI` flow source)."""
        snap = self.store.hgetall(f"traffic:flow:{window}")
        return dict(snap.get("cells", {})) if snap else {}

    # -- stats ----------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "batches_applied": self.batches_applied,
            "states_applied": self.states_applied,
            "events_applied": self.events_applied,
            "gaps": self.gaps,
            "events_trimmed": self.events_trimmed,
            "last_seq": dict(self.last_seq),
        }
