"""Minimal HTTP/1.1 + WebSocket (RFC 6455) over asyncio streams.

The serving tier deliberately speaks raw stdlib ``asyncio`` streams — no
third-party web framework — so the whole wire path is auditable and the
load harness can open tens of thousands of sockets without per-connection
framework overhead. Only the subset the tier needs is implemented:

* HTTP: request-line + header parsing for ``GET`` requests, JSON
  responses, and the ``Upgrade: websocket`` handshake.
* WebSocket: text/binary/ping/pong/close frames, client masking,
  16/64-bit extended lengths. No fragmentation (messages the tier sends
  and accepts fit in one frame) and no extensions.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Iterable

import asyncio

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

# Opcodes (RFC 6455 §5.2).
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


class ProtocolError(Exception):
    """Malformed HTTP request or WebSocket frame."""


@dataclass
class HttpRequest:
    """One parsed HTTP request head."""

    method: str
    target: str
    headers: dict[str, str]

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> dict[str, str]:
        if "?" not in self.target:
            return {}
        out: dict[str, str] = {}
        for pair in self.target.split("?", 1)[1].split("&"):
            if pair:
                key, _, value = pair.partition("=")
                out[key] = value
        return out

    def wants_websocket(self) -> bool:
        return (
            self.headers.get("upgrade", "").lower() == "websocket"
            and "sec-websocket-key" in self.headers
        )


async def read_http_request(
    reader: asyncio.StreamReader, max_bytes: int = 16384
) -> HttpRequest | None:
    """Parse one request head; ``None`` on clean EOF before any byte."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("truncated HTTP request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("HTTP request head too large") from exc
    if len(head) > max_bytes:
        raise ProtocolError("HTTP request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"bad request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return HttpRequest(method=method, target=target, headers=headers)


def http_response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        426: "Upgrade Required",
        500: "Internal Server Error",
    }.get(status, "OK")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: " + ("keep-alive" if keep_alive else "close"),
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, payload: Any) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return http_response(status, body, "application/json")


# -- WebSocket handshake ------------------------------------------------------------


def websocket_accept_key(client_key: str) -> str:
    digest = hashlib.sha1((client_key + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def websocket_handshake_response(request: HttpRequest) -> bytes:
    key = request.headers.get("sec-websocket-key", "")
    if not key:
        raise ProtocolError("missing Sec-WebSocket-Key")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def websocket_client_handshake(host: str, path: str) -> tuple[bytes, str]:
    """The client's upgrade request plus the key it must verify."""
    key = base64.b64encode(os.urandom(16)).decode()
    request = (
        f"GET {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n"
        "\r\n"
    ).encode("latin-1")
    return request, key


# -- WebSocket frames ---------------------------------------------------------------


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """One complete (FIN) frame. Clients must set ``mask`` (RFC 6455 §5.3);
    servers must not."""
    head = bytearray([0x80 | opcode])
    n = len(payload)
    mask_bit = 0x80 if mask else 0
    if n < 126:
        head.append(mask_bit | n)
    elif n < (1 << 16):
        head.append(mask_bit | 126)
        head += struct.pack(">H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", n)
    if not mask:
        return bytes(head) + payload
    key = os.urandom(4)
    head += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + masked


def encode_text(message: str, mask: bool = False) -> bytes:
    return encode_frame(OP_TEXT, message.encode(), mask=mask)


async def read_frame(
    reader: asyncio.StreamReader, max_payload: int = 1 << 20
) -> tuple[int, bytes]:
    """Read one complete frame; returns ``(opcode, payload)``. Raises
    ``IncompleteReadError`` on EOF mid-frame, ``ProtocolError`` on
    malformed input."""
    head = await reader.readexactly(2)
    fin = head[0] & 0x80
    opcode = head[0] & 0x0F
    if not fin:
        raise ProtocolError("fragmented frames are not supported")
    masked = head[1] & 0x80
    length = head[1] & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if length > max_payload:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


@dataclass
class WebSocket:
    """A handshaken WebSocket over an asyncio stream pair.

    ``recv_json`` transparently answers pings and returns ``None`` on a
    close frame or EOF; data frames must carry JSON text.
    """

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    is_client: bool = False
    max_payload: int = 1 << 20
    closed: bool = field(default=False, init=False)

    def send_text(self, message: str) -> None:
        """Queue one text frame (call ``drain`` for backpressure)."""
        self.send_texts((message,))

    def send_texts(self, messages: Iterable[str]) -> None:
        """Queue one text frame per message, in order, with one transport
        write: the bytes of ``send_text`` called on each."""
        mask = self.is_client
        self.writer.write(b"".join([encode_text(message, mask) for message in messages]))

    def send_json(self, payload: Any) -> None:
        self.send_text(json.dumps(payload, separators=(",", ":")))

    async def drain(self) -> None:
        await self.writer.drain()

    async def recv(self) -> tuple[int, bytes] | None:
        """Next data frame as ``(opcode, payload)``; ``None`` once closed.
        Control frames are handled inline (ping -> pong, close -> reply)."""
        while True:
            try:
                opcode, payload = await read_frame(self.reader, max_payload=self.max_payload)
            except (asyncio.IncompleteReadError, ConnectionError):
                self.closed = True
                return None
            if opcode == OP_PING:
                self.writer.write(encode_frame(OP_PONG, payload, mask=self.is_client))
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                if not self.closed:
                    self.closed = True
                    try:
                        self.writer.write(encode_frame(OP_CLOSE, payload, mask=self.is_client))
                        await self.writer.drain()
                    except ConnectionError:
                        pass
                return None
            return opcode, payload

    async def recv_json(self) -> Any | None:
        frame = await self.recv()
        if frame is None:
            return None
        opcode, payload = frame
        if opcode != OP_TEXT:
            raise ProtocolError(f"expected text frame, got opcode {opcode}")
        return json.loads(payload.decode())

    async def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.writer.write(encode_frame(OP_CLOSE, b"", mask=self.is_client))
                await self.writer.drain()
            except ConnectionError:
                pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def connect_websocket(
    host: str, port: int, path: str = "/ws", max_payload: int = 1 << 20
) -> WebSocket:
    """Open and handshake a client WebSocket connection."""
    reader, writer = await asyncio.open_connection(host, port)
    request, key = websocket_client_handshake(f"{host}:{port}", path)
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    if " 101 " not in status_line + " ":
        writer.close()
        raise ProtocolError(f"handshake rejected: {status_line}")
    expected = websocket_accept_key(key)
    accept = ""
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != expected:
        writer.close()
        raise ProtocolError("bad Sec-WebSocket-Accept")
    return WebSocket(reader, writer, is_client=True, max_payload=max_payload)
