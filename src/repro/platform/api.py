"""The middleware API.

"The Redis and the API belong to the Middleware component. The end user is
able to interact with the system by exploring the visualized route and
event states through the UI." (Section 3)

:class:`MiddlewareAPI` is the query surface that UI would call: vessel
state snapshots, recent event lists (the Figure 4f event list), live event
subscriptions, and the traffic-flow raster behind the Figure 4d heat map.
It is the one reader of the writer's key schema, whichever store holds it:
a :class:`~repro.platform.pipeline.Platform` reads its primary store and
its flow actor's raster, a :class:`~repro.serving.server.ServingServer` a
:class:`~repro.serving.replica.ReadReplica`'s store and replicated raster.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.events.vtff import FlowGrid, TrafficLevel
from repro.kvstore import KeyValueStore, PubSub, Subscription


class MiddlewareAPI:
    """Read-side API over the writer actor's KV schema.

    ``flow(window)`` returns the forecast ``{cell: vessel count}`` raster
    of one time window; heat classes are :meth:`FlowGrid.classify` of
    those counts. ``pubsub`` carries the live event notifications and is
    None over a replica, which has no pub/sub of its own.
    """

    def __init__(
        self,
        kvstore: KeyValueStore,
        flow: Callable[[int], dict[int, int]],
        pubsub: PubSub | None = None,
    ) -> None:
        self._kv = kvstore
        self._flow = flow
        self._pubsub = pubsub

    # -- vessels ---------------------------------------------------------------

    def vessel_state(self, mmsi: int) -> dict[str, Any] | None:
        """Latest state snapshot of one vessel, or ``None`` if unseen."""
        state = self._kv.hgetall(f"vessel:{mmsi}")
        return state or None

    def vessel_forecast(self, mmsi: int) -> list[tuple[float, float, float]] | None:
        """The vessel's latest forecast track as ``(t, lat, lon)`` tuples."""
        state = self.vessel_state(mmsi)
        if state is None:
            return None
        return state.get("forecast")

    def active_vessels(self, since_t: float = 0.0) -> list[int]:
        """MMSIs that reported at or after ``since_t``."""
        hits = self._kv.zrangebyscore("vessels:last_seen", since_t, float("inf"))
        return sorted(int(m) for m, _ in hits)

    def vessel_count(self) -> int:
        return self._kv.zcard("vessels:last_seen")

    # -- events -----------------------------------------------------------------

    def recent_events(self, kind: str, limit: int = 50) -> list[Any]:
        """The newest ``limit`` events of a kind ("proximity", "collision",
        "switchoff") — the UI's event list, most recent last."""
        return self._kv.lrange(f"events:{kind}", -limit, -1)

    def event_count(self, kind: str) -> int:
        return self._kv.llen(f"events:{kind}")

    def subscribe_events(self, kind: str = "*") -> Subscription:
        """Live event push — the notification feed of Section 5.2."""
        if self._pubsub is None:
            raise RuntimeError("a replica has no event pub/sub; subscribe on the platform")
        return self._pubsub.subscribe(f"events:{kind}")

    # -- traffic flow --------------------------------------------------------------

    def traffic_flow(self, window: int) -> dict[int, int]:
        """Forecast vessel count per active flow cell for a time window."""
        return self._flow(window)

    def traffic_heat(self, window: int) -> dict[int, TrafficLevel]:
        """The Figure 4d heat classification per active cell."""
        return {cell: FlowGrid.classify(count) for cell, count in self._flow(window).items()}
