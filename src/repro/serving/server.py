"""The asyncio query/subscription server.

One event loop serves every client over plain asyncio streams:

* **Point queries** (HTTP GET, keep-alive): vessel snapshots, recent
  events, the traffic raster, health/stats/metrics — all answered by a
  :class:`~repro.platform.api.MiddlewareAPI` over the
  :class:`~repro.serving.replica.ReadReplica`, never from the writer's
  primary store.
* **Continuous subscriptions** (WebSocket ``/ws``): bbox and k-ring
  spatial watches, per-vessel live tracks, and event-kind alert pushes.
  A state update wakes only the clients whose region matches, via the
  :class:`~repro.serving.fanout.SpatialFanoutIndex`.

Every client owns a **bounded send queue** drained by its own writer
task. When a slow client's queue overflows, the oldest pending push is
dropped and counted; the client is told how much it lost through an
``{"op": "overflow", "dropped": N}`` control message the next time its
queue drains (drop-oldest + counter — publishers never block, the
freshest state always gets through).

Wall time is only read through the injectable ``clock`` default (the
AST audit in ``tests/cluster/test_virtual_clock.py`` covers this
module); push latency histograms measure clock() at dispatch entry to
clock() at the write of the frame's batch.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable

import asyncio

from repro.events.vtff import FlowGrid
from repro.geo.bbox import BoundingBox
from repro.hexgrid import latlng_to_cell
from repro.platform.api import MiddlewareAPI
from repro.serving.config import ServingConfig
from repro.serving.fanout import BBoxRegion, KRingRegion, SpatialFanoutIndex
from repro.serving.protocol import (
    HttpRequest,
    ProtocolError,
    WebSocket,
    json_response,
    http_response,
    read_http_request,
    websocket_handshake_response,
)
from repro.serving.replica import ReadReplica
from repro.telemetry import MetricsRegistry

#: Listen backlog: subscriber load tests open thousands of connections in a burst.
BACKLOG = 4096
#: Hex resolution of a bbox or lat/lon k-ring subscription that names none
#: (res 6 ≈ 24 km edges: regional watch areas).
DEFAULT_RESOLUTION = 6
#: Largest accepted k of a k-ring subscription.
MAX_KRING_K = 8
#: Largest WebSocket frame payload accepted from a client.
MAX_FRAME_BYTES = 1 << 20
#: ``json.dumps(value, separators=(",", ":"))`` without building an encoder per call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


class ClientSession:
    """One connected WebSocket subscriber."""

    __slots__ = (
        "client_id",
        "ws",
        "queue",
        "maxlen",
        "dropped",
        "reported_dropped",
        "wakeup",
        "sids",
        "closed",
        "task",
    )

    def __init__(self, client_id: int, ws: WebSocket, maxlen: int) -> None:
        self.client_id = client_id
        self.ws = ws
        #: Pending ``(frame_text, dispatch_ts | None)`` pairs.
        self.queue: deque[tuple[str, float | None]] = deque()
        self.maxlen = maxlen
        self.dropped = 0
        self.reported_dropped = 0
        self.wakeup = asyncio.Event()
        self.sids: set[int] = set()
        self.closed = False
        self.task: asyncio.Task | None = None

    def push(self, text: str, ts: float | None) -> bool:
        """Enqueue one outbound frame; returns False if one was dropped
        to make room (drop-oldest overflow policy)."""
        overflowed = len(self.queue) >= self.maxlen
        if overflowed:
            self.queue.popleft()
            self.dropped += 1
        self.queue.append((text, ts))
        self.wakeup.set()
        return not overflowed


class ServingServer:
    """HTTP/WebSocket serving tier over a read replica."""

    def __init__(
        self,
        replica: ReadReplica,
        config: ServingConfig | None = None,
        registry: MetricsRegistry | None = None,
        warehouse=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.replica = replica
        self.api = MiddlewareAPI(replica.store, replica.flow)
        self.config = config or ServingConfig()
        self.registry = registry or MetricsRegistry()
        #: Optional :class:`~repro.warehouse.query.WarehouseQueries` for
        #: the ``/warehouse/*`` historical-analytics routes (503 without).
        self.warehouse = warehouse
        self._clock = clock
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None

        self._sessions: dict[int, ClientSession] = {}
        self._next_client_id = 0
        self._next_sid = 0
        self._fanout = SpatialFanoutIndex()
        #: sid -> (session, kind, detail) for unsubscribe/cleanup.
        self._subs: dict[int, tuple[ClientSession, str, Any]] = {}
        self._vessel_subs: dict[int, set[int]] = {}
        self._event_subs: dict[str, set[int]] = {}

        reg = self.registry
        self._g_clients = reg.gauge("serving_connected_clients")
        self._g_subscriptions = reg.gauge("serving_active_subscriptions")
        self._h_push_latency = reg.histogram("serving_push_latency_seconds")
        self._c_pushes = reg.counter("serving_pushes_total")
        self._c_matches = reg.counter("serving_fanout_matches_total")
        self._c_candidates = reg.counter("serving_fanout_candidates_total")
        self._c_dropped = reg.counter("serving_client_dropped_total")
        self._c_feed_batches = reg.counter("serving_feed_batches_total")
        self._query_counters: dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port, backlog=BACKLOG
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions.values()):
            await self._close_session(session)

    # -- replication dispatch ----------------------------------------------------------

    def dispatch_threadsafe(self, channel: str, payload: dict) -> None:
        """Entry point for the feed pump thread: replays the message into
        the serving loop, stamping the dispatch time for push latency."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self.dispatch, channel, payload, self._clock())

    def dispatch(self, channel: str, payload: dict, ts: float | None = None) -> None:
        """Fan a replication message out to matching subscribers. The
        replica itself is updated by the feed pump before this runs."""
        if ts is None:
            ts = self._clock()
        if channel.endswith(":flush"):
            self._c_feed_batches.inc()
            for state in payload["states"]:
                self._dispatch_state(state, ts)
            for event in payload["events"]:
                self._dispatch_event(event, ts)

    def _dispatch_state(self, state: dict, ts: float) -> None:
        matched, candidates = self._fanout.match(state["lat"], state["lon"])
        track_sids = self._vessel_subs.get(state["mmsi"])
        if candidates:
            self._c_candidates.inc(candidates)
        if not matched and not track_sids:
            return
        self._c_matches.inc(len(matched) + len(track_sids or ()))
        # Serialize the body once; per-subscriber frames differ only in sid.
        body = _compact_json({"type": "state", "state": state, "ts": ts})[1:]
        for sid in matched:
            self._push_to(self._subs[sid][0], sid, body, ts)
        for sid in track_sids or ():
            self._push_to(self._subs[sid][0], sid, body, ts)

    def _dispatch_event(self, event: dict, ts: float) -> None:
        kind = event["kind"]
        sids = self._event_subs.get(kind, set()) | self._event_subs.get("*", set())
        if not sids:
            return
        self._c_matches.inc(len(sids))
        body = _compact_json(
            {"type": "event", "kind": kind, "event": event["payload"], "t": event["t"], "ts": ts}
        )[1:]
        for sid in sids:
            self._push_to(self._subs[sid][0], sid, body, ts)

    def _push_to(self, session: ClientSession, sid: int, body: str, ts: float) -> None:
        if session.closed:
            return
        if not session.push(f'{{"op":"push","sid":{sid},{body}', ts):
            self._c_dropped.inc()

    def broadcast(self, payload: dict) -> int:
        """Control push to every connected client (load-harness end
        signal, shutdown notices). Returns the number of receivers."""
        text = json.dumps(payload, separators=(",", ":"))
        count = 0
        for session in self._sessions.values():
            if not session.closed:
                session.push(text, None)
                count += 1
        return count

    # -- connection handling -----------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError:
                    writer.write(json_response(400, {"error": "bad request"}))
                    break
                if request is None:
                    break
                if request.wants_websocket():
                    if request.path != "/ws":
                        writer.write(json_response(404, {"error": "no such websocket path"}))
                        break
                    writer.write(websocket_handshake_response(request))
                    await writer.drain()
                    await self._run_websocket(reader, writer)
                    return
                if request.method != "GET":
                    writer.write(json_response(405, {"error": "method not allowed"}))
                    await writer.drain()
                    continue
                writer.write(self._route(request))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- HTTP queries ------------------------------------------------------------------

    def _count_query(self, route: str) -> None:
        counter = self._query_counters.get(route)
        if counter is None:
            counter = self._query_counters[route] = self.registry.counter(
                "serving_queries_total", {"route": route}
            )
        counter.inc()

    def _route(self, request: HttpRequest) -> bytes:
        path = request.path
        query = request.query
        api = self.api
        try:
            if path == "/healthz":
                self._count_query("healthz")
                return json_response(200, {"ok": True})
            if path == "/stats":
                self._count_query("stats")
                return json_response(200, self.stats())
            if path == "/metrics":
                self._count_query("metrics")
                return http_response(
                    200, self.registry.render_prometheus().encode(), "text/plain; version=0.0.4"
                )
            if path.startswith("/vessel/"):
                parts = path.split("/")
                mmsi = int(parts[2])
                if len(parts) == 3:
                    self._count_query("vessel")
                    state = api.vessel_state(mmsi)
                    if state is None:
                        return json_response(404, {"error": f"vessel {mmsi} unseen"})
                    return json_response(200, {"mmsi": mmsi, "state": state})
                if len(parts) == 4 and parts[3] == "forecast":
                    self._count_query("forecast")
                    forecast = api.vessel_forecast(mmsi)
                    return json_response(200, {"mmsi": mmsi, "forecast": forecast})
            if path == "/vessels":
                self._count_query("vessels")
                since = float(query.get("since", "0"))
                return json_response(
                    200, {"count": api.vessel_count(), "mmsis": api.active_vessels(since_t=since)}
                )
            if path.startswith("/events/"):
                self._count_query("events")
                kind = path.split("/")[2]
                limit = int(query.get("limit", "50"))
                return json_response(
                    200,
                    {
                        "kind": kind,
                        "count": api.event_count(kind),
                        "events": api.recent_events(kind, limit=limit),
                    },
                )
            if path == "/traffic":
                self._count_query("traffic")
                window = int(query.get("window", "1"))
                flow = {str(cell): count for cell, count in api.traffic_flow(window).items()}
                heat = {cell: FlowGrid.classify(count).value for cell, count in flow.items()}
                return json_response(200, {"window": window, "flow": flow, "heat": heat})
            if path.startswith("/warehouse/"):
                return self._route_warehouse(path, query)
            return json_response(404, {"error": f"no route for {path}"})
        except (ValueError, KeyError, IndexError) as exc:
            return json_response(400, {"error": str(exc)})

    def _route_warehouse(self, path: str, query: dict) -> bytes:
        """Historical-analytics routes over the attached warehouse."""
        wq = self.warehouse
        if wq is None:
            return json_response(503, {"error": "no warehouse attached to this server"})
        t0 = float(query["t0"]) if "t0" in query else float("-inf")
        t1 = float(query["t1"]) if "t1" in query else float("inf")
        if path == "/warehouse/stats":
            self._count_query("warehouse_stats")
            return json_response(200, wq.warehouse.stats())
        if path == "/warehouse/heatmap":
            self._count_query("warehouse_heatmap")
            by = query.get("by", "rows")
            if "k" in query:
                cells = wq.kring_heatmap(
                    float(query["lat"]), float(query["lon"]), int(query["k"]), t0=t0, t1=t1, by=by
                )
            else:
                bbox = BoundingBox(
                    lat_min=float(query["lat_min"]),
                    lat_max=float(query["lat_max"]),
                    lon_min=float(query["lon_min"]),
                    lon_max=float(query["lon_max"]),
                )
                cells = wq.heatmap(bbox=bbox, t0=t0, t1=t1, by=by)
            return json_response(
                200, {"by": by, "cells": {f"{cell:016x}": count for cell, count in cells.items()}}
            )
        if path == "/warehouse/timeseries":
            self._count_query("warehouse_timeseries")
            cells = [int(c, 16) for c in query["cells"].split(",") if c]
            kinds = query["kinds"].split(",") if "kinds" in query else None
            series = wq.cell_event_rate(
                cells, t0, t1, float(query.get("bucket_s", "3600")), kinds=kinds
            )
            series["cells"] = {f"{cell:016x}": counts for cell, counts in series["cells"].items()}
            return json_response(200, series)
        if path == "/warehouse/congestion":
            self._count_query("warehouse_congestion")
            bbox = BoundingBox(
                lat_min=float(query["lat_min"]),
                lat_max=float(query["lat_max"]),
                lon_min=float(query["lon_min"]),
                lon_max=float(query["lon_max"]),
            )
            return json_response(
                200, wq.congestion_trend(t0, t1, float(query.get("bucket_s", "3600")), bbox=bbox)
            )
        if path.startswith("/warehouse/vessel/"):
            self._count_query("warehouse_vessel")
            mmsi = int(path.split("/")[3])
            history = wq.vessel_history(mmsi, t0=t0, t1=t1)
            return json_response(
                200, {"mmsi": mmsi, "fixes": len(history["t"]), "history": history}
            )
        return json_response(404, {"error": f"no route for {path}"})

    def stats(self) -> dict:
        return {
            "connected_clients": len(self._sessions),
            "active_subscriptions": len(self._subs),
            "spatial_subscriptions": len(self._fanout),
            "client_dropped": self._c_dropped.value,
            "pushes_total": self._c_pushes.value,
            "replica": self.replica.stats(),
        }

    # -- WebSocket sessions ------------------------------------------------------------

    async def _run_websocket(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        ws = WebSocket(reader, writer, max_payload=MAX_FRAME_BYTES)
        self._next_client_id += 1
        session = ClientSession(self._next_client_id, ws, self.config.client_queue_maxlen)
        self._sessions[session.client_id] = session
        self._g_clients.set(len(self._sessions))
        session.task = asyncio.ensure_future(self._send_loop(session))
        try:
            while True:
                try:
                    command = await ws.recv_json()
                except (ProtocolError, json.JSONDecodeError):
                    session.push(json.dumps({"op": "error", "error": "malformed frame"}), None)
                    continue
                if command is None:
                    break
                self._handle_command(session, command)
        finally:
            await self._close_session(session)

    def _handle_command(self, session: ClientSession, command: Any) -> None:
        if not isinstance(command, dict):
            reply: dict[str, Any] = {"op": "error", "error": "command must be an object"}
        else:
            op = command.get("op")
            if op == "subscribe":
                reply = self._subscribe(session, command)
            elif op == "unsubscribe":
                reply = self._unsubscribe(session, command)
            elif op == "ping":
                reply = {"op": "pong", "t": command.get("t")}
            else:
                reply = {"op": "error", "error": f"unknown op {op!r}"}
        session.push(json.dumps(reply, separators=(",", ":")), None)

    def _subscribe(self, session: ClientSession, command: dict) -> dict:
        if len(session.sids) >= self.config.max_subscriptions_per_client:
            return {"op": "error", "error": "subscription limit reached"}
        sub_type = command.get("type")
        try:
            if sub_type == "bbox":
                bbox = BoundingBox(
                    lat_min=float(command["lat_min"]),
                    lat_max=float(command["lat_max"]),
                    lon_min=float(command["lon_min"]),
                    lon_max=float(command["lon_max"]),
                )
                res = int(command.get("res", DEFAULT_RESOLUTION))
                if not 0 <= res <= 15:
                    raise ValueError(f"res {res} out of range")
                region = BBoxRegion.fitted(bbox, res, self.config.max_region_cells)
                sid = self._register(session, "bbox", region)
                return {"op": "subscribed", "sid": sid, "type": "bbox", "res": region.resolution}
            if sub_type == "kring":
                k = int(command.get("k", 1))
                if not 0 <= k <= MAX_KRING_K:
                    raise ValueError(f"k must be in [0, {MAX_KRING_K}]")
                if "cell" in command:
                    center = int(command["cell"])
                else:
                    res = int(command.get("res", DEFAULT_RESOLUTION))
                    center = latlng_to_cell(float(command["lat"]), float(command["lon"]), res)
                region = KRingRegion(center=center, k=k)
                sid = self._register(session, "kring", region)
                return {"op": "subscribed", "sid": sid, "type": "kring", "cell": center}
            if sub_type == "vessel":
                mmsi = int(command["mmsi"])
                sid = self._register(session, "vessel", mmsi)
                return {"op": "subscribed", "sid": sid, "type": "vessel", "mmsi": mmsi}
            if sub_type == "events":
                kind = str(command.get("kind", "*"))
                sid = self._register(session, "events", kind)
                return {"op": "subscribed", "sid": sid, "type": "events", "kind": kind}
            return {"op": "error", "error": f"unknown subscription type {sub_type!r}"}
        except (KeyError, ValueError, TypeError) as exc:
            return {"op": "error", "error": str(exc)}

    def _register(self, session: ClientSession, kind: str, detail: Any) -> int:
        self._next_sid += 1
        sid = self._next_sid
        if kind in ("bbox", "kring"):
            self._fanout.add(sid, detail)
        elif kind == "vessel":
            self._vessel_subs.setdefault(detail, set()).add(sid)
        elif kind == "events":
            self._event_subs.setdefault(detail, set()).add(sid)
        self._subs[sid] = (session, kind, detail)
        session.sids.add(sid)
        self._g_subscriptions.set(len(self._subs))
        return sid

    def _unsubscribe(self, session: ClientSession, command: dict) -> dict:
        try:
            sid = int(command["sid"])
        except (KeyError, ValueError, TypeError):
            return {"op": "error", "error": "unsubscribe needs a sid"}
        entry = self._subs.get(sid)
        if entry is None or entry[0] is not session:
            return {"op": "error", "error": f"unknown sid {sid}"}
        self._drop_subscription(sid)
        return {"op": "unsubscribed", "sid": sid}

    def _drop_subscription(self, sid: int) -> None:
        session, kind, detail = self._subs.pop(sid)
        session.sids.discard(sid)
        if kind in ("bbox", "kring"):
            self._fanout.remove(sid)
        elif kind == "vessel":
            bucket = self._vessel_subs.get(detail)
            if bucket is not None:
                bucket.discard(sid)
                if not bucket:
                    del self._vessel_subs[detail]
        elif kind == "events":
            bucket = self._event_subs.get(detail)
            if bucket is not None:
                bucket.discard(sid)
                if not bucket:
                    del self._event_subs[detail]
        self._g_subscriptions.set(len(self._subs))

    async def _close_session(self, session: ClientSession) -> None:
        if session.client_id not in self._sessions:
            return
        session.closed = True
        del self._sessions[session.client_id]
        for sid in list(session.sids):
            self._drop_subscription(sid)
        self._g_clients.set(len(self._sessions))
        session.wakeup.set()  # unblock the send loop so it can exit
        if session.task is not None:
            try:
                await session.task
            except (ConnectionError, asyncio.CancelledError):
                pass
        await session.ws.close()

    async def _send_loop(self, session: ClientSession) -> None:
        """Drain the session's bounded queue onto the socket: everything
        queued at a wake-up leaves in one transport write."""
        queue = session.queue
        ws = session.ws
        try:
            while True:
                await session.wakeup.wait()
                session.wakeup.clear()
                if session.closed:
                    return
                if not queue:
                    continue
                # Counted before the write: a client that has read a frame
                # (on another thread, say) must find it in ``pushes_total``.
                # Nothing on this loop can push while the batch goes out.
                self._c_pushes.inc(len(queue))
                texts = []
                if session.dropped > session.reported_dropped:
                    # Surface the overflow counter before newer data.
                    session.reported_dropped = session.dropped
                    texts.append(_compact_json({"op": "overflow", "dropped": session.dropped}))
                stamps = [ts for text, ts in queue if ts is not None]
                texts += [text for text, _ in queue]
                queue.clear()
                ws.send_texts(texts)
                now = self._clock()
                for ts in stamps:
                    self._h_push_latency.observe(now - ts)
                await ws.drain()
        except (ConnectionError, asyncio.CancelledError):
            session.closed = True
