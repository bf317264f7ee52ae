"""``repro.serving`` — the async query/subscription tier.

The paper's middleware exists so a UI/API can read the writer's Redis
state (Section 3); this package is that surface grown to interactive
scale: an asyncio HTTP/WebSocket server answering point queries and
continuous spatial subscriptions from **read replicas** fed by the
writer's pub/sub, so serving load never touches the actor hot path.
Semantics follow Dolphin's reactive moving-object subscriptions and
CheetahGIS's continuous streaming spatial queries (PAPERS.md); the full
protocol, overflow policy and consistency model are in SERVING.md.

Layers (each its own module):

* :mod:`~repro.serving.replica` — ``ReadReplica``, the replicated store
  and flow raster that :class:`~repro.platform.api.MiddlewareAPI` reads,
* :mod:`~repro.serving.fanout` — the per-cell spatial fanout index for
  bbox / k-ring subscription matching,
* :mod:`~repro.serving.protocol` — stdlib HTTP + RFC 6455 WebSocket
  framing over asyncio streams,
* :mod:`~repro.serving.server` — ``ServingServer``: routes, sessions,
  bounded per-client send queues, telemetry,
* :mod:`~repro.serving.bridge` — ``ReplicaFeedPump``, the thread that
  moves writer flush batches into the replica and the serving loop.
"""

from repro.serving.bridge import ReplicaFeedPump
from repro.serving.config import ServingConfig
from repro.serving.fanout import (
    BBoxRegion,
    KRingRegion,
    SpatialFanoutIndex,
    cells_covering_bbox,
)
from repro.serving.protocol import WebSocket, connect_websocket
from repro.serving.replica import (
    REPL_FLOW_CHANNEL,
    REPL_FLUSH_CHANNEL,
    REPL_PATTERN,
    ReadReplica,
)
from repro.serving.server import ServingServer

__all__ = [
    "BBoxRegion",
    "KRingRegion",
    "ReadReplica",
    "ReplicaFeedPump",
    "REPL_FLOW_CHANNEL",
    "REPL_FLUSH_CHANNEL",
    "REPL_PATTERN",
    "ServingConfig",
    "ServingServer",
    "SpatialFanoutIndex",
    "WebSocket",
    "cells_covering_bbox",
    "connect_websocket",
]
