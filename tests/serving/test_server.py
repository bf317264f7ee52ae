"""End-to-end serving tier tests: real sockets, one event loop per test.

Each test spins up a :class:`ServingServer` on an ephemeral port inside
``asyncio.run``, talks to it through the same client helpers the load
harness uses, and asserts on what actually crossed the wire.
"""

from __future__ import annotations

import asyncio
import json

from repro.events.vtff import FlowGrid
from repro.platform.api import MiddlewareAPI
from repro.serving import (
    ReadReplica,
    ServingConfig,
    ServingServer,
    connect_websocket,
)
from repro.serving.protocol import encode_text

AEGEAN_SUB = {
    "op": "subscribe",
    "type": "bbox",
    "lat_min": 37.0,
    "lat_max": 38.0,
    "lon_min": 24.0,
    "lon_max": 25.0,
    "res": 6,
}


def _batch(seq, states=(), events=()):
    return {"shard": 0, "seq": seq, "states": list(states), "events": list(events)}


def _state(mmsi, lat, lon, t=60.0):
    return {"mmsi": mmsi, "t": t, "lat": lat, "lon": lon, "sog": 9.0, "cog": 90.0}


async def _started_server(**config_kwargs):
    replica = ReadReplica()
    server = ServingServer(replica, config=ServingConfig(**config_kwargs))
    await server.start()
    return server


async def _ws_client(server):
    return await connect_websocket("127.0.0.1", server.port, "/ws")


async def _command(ws, command):
    ws.send_text(json.dumps(command))
    await ws.drain()
    return await ws.recv_json()


async def _http_get(port, target):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, headers, body


def test_http_point_queries_served_from_replica():
    async def scenario():
        server = await _started_server()
        server.replica.apply_flush(
            _batch(
                1,
                states=[_state(111, 37.5, 24.5)],
                events=[
                    {"kind": "collision", "t": 60.0, "payload": {"mmsi_a": 111, "mmsi_b": 222}}
                ],
            )
        )
        try:
            status, _, body = await _http_get(server.port, "/healthz")
            assert (status, json.loads(body)) == (200, {"ok": True})

            status, _, body = await _http_get(server.port, "/vessel/111")
            assert status == 200
            assert json.loads(body)["state"]["lat"] == 37.5

            status, _, body = await _http_get(server.port, "/vessel/999")
            assert status == 404

            status, _, body = await _http_get(server.port, "/vessels?since=0")
            payload = json.loads(body)
            assert payload["count"] == 1 and payload["mmsis"] == [111]

            status, _, body = await _http_get(server.port, "/events/collision?limit=10")
            payload = json.loads(body)
            assert payload["count"] == 1
            assert payload["events"][0]["mmsi_a"] == 111

            status, _, body = await _http_get(server.port, "/nope")
            assert status == 404

            status, _, body = await _http_get(server.port, "/vessels?since=junk")
            assert status == 400
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_traffic_heat_is_the_class_of_the_flow_served_beside_it():
    """/traffic reads the raster once: each cell's heat classifies the
    count in the same response, though every read here finds new counts."""
    reads = []

    def moving_flow(window):
        reads.append(window)
        return {cell: cell + 3 * len(reads) for cell in range(1, 6)}

    async def scenario():
        server = await _started_server()
        server.api = MiddlewareAPI(server.replica.store, moving_flow)
        try:
            for n in range(1, 3):
                status, _, body = await _http_get(server.port, "/traffic?window=2")
                payload = json.loads(body)
                assert status == 200 and reads == [2] * n
                assert payload["flow"] == {str(cell): cell + 3 * n for cell in range(1, 6)}
                assert payload["heat"] == {
                    cell: FlowGrid.classify(count).value for cell, count in payload["flow"].items()
                }
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_metrics_endpoint_renders_prometheus():
    async def scenario():
        server = await _started_server()
        try:
            status, headers, body = await _http_get(server.port, "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = body.decode()
            assert "serving_connected_clients" in text
            assert "serving_pushes_total" in text
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_bbox_subscription_receives_matching_pushes_only():
    async def scenario():
        server = await _started_server()
        ws = await _ws_client(server)
        try:
            reply = await _command(ws, AEGEAN_SUB)
            assert reply["op"] == "subscribed" and reply["type"] == "bbox"
            sid = reply["sid"]

            server.dispatch(
                "repl:flush",
                _batch(1, states=[_state(111, 37.5, 24.5), _state(222, 40.0, 10.0)]),
            )  # the first inside the box, the second outside
            push = await ws.recv_json()
            assert push["op"] == "push" and push["sid"] == sid
            assert push["type"] == "state"
            assert push["state"]["mmsi"] == 111
            assert push["ts"] >= 0.0

            # Nothing further queued: a ping round-trip overtakes any push.
            pong = await _command(ws, {"op": "ping", "t": 7})
            assert pong == {"op": "pong", "t": 7}
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_vessel_track_and_event_subscriptions():
    async def scenario():
        server = await _started_server()
        ws = await _ws_client(server)
        try:
            track = await _command(ws, {"op": "subscribe", "type": "vessel", "mmsi": 777})
            assert track["op"] == "subscribed"
            ev = await _command(ws, {"op": "subscribe", "type": "events", "kind": "collision"})
            assert ev["op"] == "subscribed"

            server.dispatch(
                "repl:flush",
                _batch(
                    1,
                    states=[_state(777, -10.0, -120.0)],  # far from any bbox
                    events=[
                        {"kind": "collision", "t": 61.0, "payload": {"mmsi_a": 1, "mmsi_b": 2}},
                        {"kind": "switchoff", "t": 62.0, "payload": {"mmsi": 3}},
                    ],
                ),
            )
            got = [await ws.recv_json(), await ws.recv_json()]
            by_sid = {m["sid"]: m for m in got}
            assert by_sid[track["sid"]]["state"]["mmsi"] == 777
            assert by_sid[ev["sid"]]["type"] == "event"
            assert by_sid[ev["sid"]]["kind"] == "collision"
            # The switchoff event matched no subscription: queue is empty.
            pong = await _command(ws, {"op": "ping"})
            assert pong["op"] == "pong"
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_unsubscribe_stops_pushes_and_cleans_up():
    async def scenario():
        server = await _started_server()
        ws = await _ws_client(server)
        try:
            reply = await _command(ws, AEGEAN_SUB)
            sid = reply["sid"]
            assert server.stats()["active_subscriptions"] == 1

            done = await _command(ws, {"op": "unsubscribe", "sid": sid})
            assert done == {"op": "unsubscribed", "sid": sid}
            assert server.stats()["active_subscriptions"] == 0
            assert server.stats()["spatial_subscriptions"] == 0

            server.dispatch("repl:flush", _batch(1, states=[_state(111, 37.5, 24.5)]))
            pong = await _command(ws, {"op": "ping"})
            assert pong["op"] == "pong"  # no push arrived first

            bad = await _command(ws, {"op": "unsubscribe", "sid": sid})
            assert bad["op"] == "error"
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_malformed_commands_get_errors_not_disconnects():
    async def scenario():
        server = await _started_server()
        ws = await _ws_client(server)
        try:
            reply = await _command(ws, {"op": "warp"})
            assert reply["op"] == "error"
            reply = await _command(ws, [1, 2, 3])
            assert reply["op"] == "error"
            reply = await _command(ws, {"op": "subscribe", "type": "bbox", "lat_min": "x"})
            assert reply["op"] == "error"
            reply = await _command(
                ws, {"op": "subscribe", "type": "kring", "k": 99, "lat": 37.0, "lon": 24.0}
            )
            assert reply["op"] == "error"
            pong = await _command(ws, {"op": "ping"})
            assert pong["op"] == "pong"  # connection survived all of it
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_subscription_limit_enforced():
    async def scenario():
        server = await _started_server(max_subscriptions_per_client=2)
        ws = await _ws_client(server)
        try:
            for mmsi in (1, 2):
                reply = await _command(ws, {"op": "subscribe", "type": "vessel", "mmsi": mmsi})
                assert reply["op"] == "subscribed"
            reply = await _command(ws, {"op": "subscribe", "type": "vessel", "mmsi": 3})
            assert reply["op"] == "error"
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_slow_client_overflow_drops_oldest_and_reports():
    async def scenario():
        server = await _started_server(client_queue_maxlen=4)
        ws = await _ws_client(server)
        try:
            reply = await _command(ws, {"op": "subscribe", "type": "vessel", "mmsi": 5})
            sid = reply["sid"]
            # Ten synchronous dispatches before the send loop can run:
            # the bounded queue keeps the newest 4, drops the oldest 6.
            for i in range(10):
                state = _state(5, 37.0, 24.0, t=float(i))
                server.dispatch("repl:flush", _batch(i + 1, states=[state]))
            overflow = await ws.recv_json()
            assert overflow == {"op": "overflow", "dropped": 6}
            kept = [await ws.recv_json() for _ in range(4)]
            assert [m["state"]["t"] for m in kept] == [6.0, 7.0, 8.0, 9.0]
            assert all(m["sid"] == sid for m in kept)
            assert server.stats()["client_dropped"] == 6
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_session_close_drops_all_subscriptions():
    async def scenario():
        server = await _started_server()
        ws = await _ws_client(server)
        await _command(ws, AEGEAN_SUB)
        await _command(ws, {"op": "subscribe", "type": "vessel", "mmsi": 9})
        assert server.stats()["connected_clients"] == 1
        assert server.stats()["active_subscriptions"] == 2
        await ws.close()
        # Let the server observe the close frame and tear down.
        for _ in range(50):
            if server.stats()["connected_clients"] == 0:
                break
            await asyncio.sleep(0.01)
        stats = server.stats()
        assert stats["connected_clients"] == 0
        assert stats["active_subscriptions"] == 0
        assert stats["spatial_subscriptions"] == 0
        await server.stop()

    asyncio.run(scenario())


def test_broadcast_reaches_every_client():
    async def scenario():
        server = await _started_server()
        clients = [await _ws_client(server) for _ in range(3)]
        try:
            assert server.broadcast({"op": "end"}) == 3
            for ws in clients:
                assert await ws.recv_json() == {"op": "end"}
        finally:
            for ws in clients:
                await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_a_frame_is_counted_before_it_is_written():
    """``pushes_total`` already includes a frame when its bytes go out, so
    a reader on another thread that holds the frame finds it counted."""

    async def scenario():
        server = await _started_server()
        ws = await _ws_client(server)
        try:
            assert await _command(ws, {"op": "ping", "t": 1}) == {"op": "pong", "t": 1}
            (session,) = server._sessions.values()
            send_texts, counted_at_write = session.ws.send_texts, []

            def send_counted(texts):
                texts = list(texts)
                counted_at_write.extend(server.stats()["pushes_total"] for _ in texts)
                send_texts(texts)

            session.ws.send_texts = send_counted
            before = server.stats()["pushes_total"]
            server.broadcast({"op": "end"})
            server.broadcast({"op": "end"})
            for _ in range(2):
                assert await ws.recv_json() == {"op": "end"}
            assert counted_at_write == [before + 2, before + 2]
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_a_burst_leaves_in_one_write_of_the_per_frame_bytes():
    """Everything queued for a session when its send loop wakes leaves in
    one transport write, whose bytes are each frame's ``encode_text`` in
    queue order; after an overflow the notice leads the newer frames."""

    async def scenario():
        server = await _started_server(client_queue_maxlen=4)
        ws = await _ws_client(server)
        try:
            sids = [
                (await _command(ws, {"op": "subscribe", "type": "vessel", "mmsi": 5}))["sid"]
                for _ in range(3)
            ]
            (session,) = server._sessions.values()
            before = server.stats()["pushes_total"]
            write, writes = session.ws.writer.write, []

            def recording(data):
                writes.append(bytes(data))
                write(data)

            session.ws.writer.write = recording
            # One state, three subscriptions: a burst of three frames.
            server.dispatch("repl:flush", _batch(1, states=[_state(5, 37.0, 24.0)]))
            queued = [text for text, _ in session.queue]
            assert len(queued) == 3
            pushes = [await ws.recv_json() for _ in queued]
            assert sorted(push["sid"] for push in pushes) == sids
            assert writes == [b"".join(encode_text(text) for text in queued)]

            # Two more states overflow the queue of four by two.
            writes.clear()
            for seq, t in ((2, 61.0), (3, 62.0)):
                server.dispatch("repl:flush", _batch(seq, states=[_state(5, 37.0, 24.0, t=t)]))
            queued = [text for text, _ in session.queue]
            notice = '{"op":"overflow","dropped":2}'
            assert writes == []
            assert await ws.recv_json() == json.loads(notice)
            kept = [await ws.recv_json() for _ in queued]
            assert [push["state"]["t"] for push in kept] == [61.0, 62.0, 62.0, 62.0]
            assert writes == [b"".join(encode_text(text) for text in [notice, *queued])]
            assert server.stats()["pushes_total"] == before + 3 + 4
        finally:
            await ws.close()
            await server.stop()

    asyncio.run(scenario())


def test_non_ws_path_rejected_and_stats_counts_queries():
    async def scenario():
        server = await _started_server()
        try:
            status, _, _ = await _http_get(server.port, "/stats")
            assert status == 200
            status, _, body = await _http_get(server.port, "/stats")
            stats = json.loads(body)
            assert stats["connected_clients"] == 0
            assert stats["replica"]["batches_applied"] == 0
            rendered = server.registry.render_prometheus()
            assert 'serving_queries_total{route="stats"} 2' in rendered
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_warehouse_routes_require_attachment():
    async def scenario():
        server = await _started_server()
        try:
            status, _, body = await _http_get(server.port, "/warehouse/stats")
            assert status == 503
            assert "no warehouse" in json.loads(body)["error"]
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_warehouse_routes_serve_historical_queries(tmp_path):
    from repro.warehouse import Warehouse, WarehouseCompactor, WarehouseQueries

    warehouse = Warehouse(str(tmp_path / "wh"), resolution=6)
    fixes = [
        _state(111, 37.5, 24.5, t=60.0),
        _state(111, 37.51, 24.51, t=120.0),
        _state(222, 10.0, -40.0, t=60.0),
    ]
    journal = [
        (seq, "hmset", (f"vessel:{fix['mmsi']}", fix), {}) for seq, fix in enumerate(fixes, start=1)
    ]
    event = {"mmsi_a": 111, "mmsi_b": 222, "t": 90.0, "lat": 37.5, "lon": 24.5}
    journal.append((4, "rpush", ("events:proximity", event), {}))
    WarehouseCompactor(warehouse).compact_journal(journal)

    async def scenario():
        replica = ReadReplica()
        server = ServingServer(
            replica, config=ServingConfig(), warehouse=WarehouseQueries(warehouse)
        )
        await server.start()
        try:
            status, _, body = await _http_get(server.port, "/warehouse/stats")
            assert status == 200
            stats = json.loads(body)
            assert stats["positions_rows"] == 3
            assert stats["events_rows"] == 1

            target = "/warehouse/heatmap?lat_min=37&lat_max=38&lon_min=24&lon_max=25"
            status, _, body = await _http_get(server.port, target)
            assert status == 200
            heat = json.loads(body)
            assert sum(heat["cells"].values()) == 2  # 222 is outside

            status, _, body = await _http_get(
                server.port, "/warehouse/heatmap?lat=37.5&lon=24.5&k=1&by=vessels"
            )
            assert status == 200
            assert sum(json.loads(body)["cells"].values()) == 1

            cells = ",".join(json.loads(body)["cells"])
            status, _, body = await _http_get(
                server.port, f"/warehouse/timeseries?cells={cells}&t0=0&t1=3600&bucket_s=3600"
            )
            assert status == 200
            assert sum(json.loads(body)["total"]) == 1

            status, _, body = await _http_get(
                server.port,
                "/warehouse/congestion?lat_min=37&lat_max=38&lon_min=24&lon_max=25"
                "&t0=0&t1=3600&bucket_s=1800",
            )
            assert status == 200
            assert json.loads(body)["vessels"] == [1, 0]

            status, _, body = await _http_get(server.port, "/warehouse/vessel/111")
            assert status == 200
            payload = json.loads(body)
            assert payload["fixes"] == 2
            assert payload["history"]["t"] == [60.0, 120.0]

            status, _, _ = await _http_get(server.port, "/warehouse/nope")
            assert status == 404

            status, _, _ = await _http_get(server.port, "/warehouse/heatmap?lat=x&lon=y&k=1")
            assert status == 400
        finally:
            await server.stop()

    asyncio.run(scenario())
