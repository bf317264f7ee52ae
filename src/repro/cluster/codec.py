"""Wire serialization for cluster messages.

The paper's Akka cluster serializes actor messages with a configured
serializer before they cross node boundaries. Here every
:class:`~repro.cluster.protocol.WireEnvelope` crosses the wire in one of
two forms:

* **fast path** — a compact ``struct``-packed binary encoding, selected by
  a one-byte tag. Envelope metadata (kind, hops, correlation id, the five
  routing strings, an int/str key) is never pickled; the hot payload types
  of the Figure 6 workload (``PositionIngested``, ``CellObservation``,
  ``ForecastShared`` and heartbeats) get dedicated fixed layouts, so the
  steady-state stream pays zero pickle headers.
* **restricted pickle fallback** — anything else (control messages, alerts,
  arbitrary ask payloads) is pickled, but *only the payload*: the envelope
  framing around it stays binary. Decoding resolves classes through a
  restricted unpickler that only admits trusted modules (``repro.*``,
  numpy, and a small stdlib allowlist).

Both transports carry the same frames — the loopback transport round trips
exactly the bytes the sockets carry, so serialization bugs surface in the
deterministic tests. :func:`encode_batch` / :func:`decode_batch` pack many
frames into one container frame for the batching transport.

Counters (``encoded_size``, ``frames_encoded``, ``fast_path_frames``,
``pickle_fallbacks``) are module-level and monotonic; under free threading
they are best-effort observability, not accounting.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any, Sequence

#: Module prefixes whose classes may appear in a wire frame.
TRUSTED_PREFIXES = ("repro.",)

#: Exact modules from outside the project that payloads legitimately use
#: (numpy arrays inside forecasts, deques inside actor state snapshots).
TRUSTED_MODULES = frozenset({
    "builtins",
    "collections",
    "numpy",
    "numpy.core.multiarray",
    "numpy._core.multiarray",
    "numpy.core.numeric",
    "numpy._core.numeric",
    "numpy.dtypes",
})

#: Builtins that restricted frames may reference. Notably *not* ``eval``,
#: ``exec``, ``getattr`` or ``__import__``.
_SAFE_BUILTINS = frozenset({
    "complex", "dict", "frozenset", "list", "set", "tuple", "bytearray",
    "bytes", "float", "int", "str", "bool", "slice", "range", "object",
})


class WireDecodeError(ValueError):
    """A frame failed to decode or referenced an untrusted class."""


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins":
            if name not in _SAFE_BUILTINS:
                raise WireDecodeError(
                    f"wire frame references forbidden builtin {name!r}")
            return super().find_class(module, name)
        if module in TRUSTED_MODULES or module.startswith(TRUSTED_PREFIXES):
            return super().find_class(module, name)
        raise WireDecodeError(
            f"wire frame references untrusted class {module}.{name}")


def _restricted_loads(data: bytes) -> Any:
    return _RestrictedUnpickler(io.BytesIO(data)).load()


# -- observability counters --------------------------------------------------------

#: Total bytes produced by :func:`encode` (frame sizes, pre-transport).
encoded_size = 0
#: Frames encoded since import / the last :func:`reset_counters`.
frames_encoded = 0
#: Frames that took the struct envelope framing (their payload may still
#: be pickled — see ``pickle_fallbacks``).
fast_path_frames = 0
#: Whole frames or envelope payloads that fell back to pickle.
pickle_fallbacks = 0


def reset_counters() -> None:
    global encoded_size, frames_encoded, fast_path_frames, pickle_fallbacks
    encoded_size = 0
    frames_encoded = 0
    fast_path_frames = 0
    pickle_fallbacks = 0


def counters() -> dict:
    return {
        "encoded_size": encoded_size,
        "frames_encoded": frames_encoded,
        "fast_path_frames": fast_path_frames,
        "pickle_fallbacks": pickle_fallbacks,
    }


# -- frame tags --------------------------------------------------------------------

# Pickle protocol >= 2 frames start with 0x80, so the fast-path tags below
# stay clear of it and decode dispatches on the first byte.
TAG_ENV = 0x01      #: struct-framed WireEnvelope
TAG_BATCH = 0x02    #: container of many frames (see encode_batch)

_KIND_CODES = {"sharded": 0, "named": 1, "ask": 2, "reply": 3, "control": 4}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

# Value/payload tags inside a TAG_ENV frame.
_P_NONE = 0x00
_P_PICKLE = 0x01
_P_INT = 0x02        #: signed 64-bit int
_P_STR = 0x03
_P_UINT = 0x04       #: unsigned 64-bit int above INT64_MAX (H3 cell keys)
_P_POSITION = 0x10        #: platform.messages.PositionIngested
_P_CELLOBS = 0x11         #: platform.messages.CellObservation
_P_FORECAST = 0x12        #: platform.messages.ForecastShared
_P_HEARTBEAT = 0x13       #: cluster.protocol.Heartbeat
_P_FORECAST_BATCH = 0x14  #: platform.messages.ForecastSharedBatch
_P_LOAD_REPORT = 0x15     #: cluster.protocol.LoadReport

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_ENV_HEAD = struct.Struct(">BBq")            # kind, hops, corr_id (-1 = None)
#: High bit of the kind byte flags an 8-byte trace id following the head;
#: untraced frames (the overwhelming majority) stay byte-identical to the
#: pre-telemetry encoding.
_KIND_TRACED = 0x80
_AIS_BODY = struct.Struct(">QdddddhBB")      # mmsi,t,lat,lon,sog,cog,hdg,st,src
#: Cells are unsigned: H3-style ids use the full 64-bit range (indexes
#: above ``2**63`` are routine at the collision-cell resolution).
_CELLOBS_BODY = struct.Struct(">QQddd")      # cell, mmsi, t, lat, lon
_FORECAST_HEAD = struct.Struct(">QQH")       # cell, mmsi, n_positions
_FORECAST_BATCH_HEAD = struct.Struct(">QHH")  # mmsi, n_cells, n_positions
_POS_FIXED = struct.Struct(">Bddd")          # flags, t, lat, lon
_DOUBLE = struct.Struct(">d")
#: mailbox_depth, consumer_lag, busy_ms, entities, n_shard_pairs — the
#: per-heartbeat load report (sent once per ``load_report_interval_s`` by
#: every node, so it must not pay a pickle header).
_LOAD_HEAD = struct.Struct(">QQdQH")
_LOAD_PAIR = struct.Struct(">IQ")            # shard, message count

_NO_STR = 0xFFFF    #: length marker for a None string field
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

# The hot message types live in repro.platform (which itself imports
# repro.cluster), so they are bound lazily on first encode/decode rather
# than at module import.
_HOT: dict | None = None


def _hot() -> dict:
    global _HOT
    if _HOT is None:
        from repro.ais.message import AISMessage, NavigationStatus
        from repro.cluster.protocol import (
            Heartbeat,
            LoadReport,
            WireEnvelope,
        )
        from repro.geo.track import Position
        from repro.models.base import RouteForecast
        from repro.platform.messages import (
            CellObservation,
            ForecastShared,
            ForecastSharedBatch,
            PositionIngested,
        )
        _HOT = {
            "AISMessage": AISMessage,
            "NavigationStatus": NavigationStatus,
            "Heartbeat": Heartbeat,
            "LoadReport": LoadReport,
            "WireEnvelope": WireEnvelope,
            "Position": Position,
            "RouteForecast": RouteForecast,
            "CellObservation": CellObservation,
            "ForecastShared": ForecastShared,
            "ForecastSharedBatch": ForecastSharedBatch,
            "PositionIngested": PositionIngested,
        }
    return _HOT


_SOURCE_CODES = {"terrestrial": 0, "satellite": 1}
_SOURCE_NAMES = {v: k for k, v in _SOURCE_CODES.items()}


# -- field helpers -----------------------------------------------------------------


def _put_str(out: bytearray, value: str | None) -> None:
    if value is None:
        out += _U16.pack(_NO_STR)
        return
    data = value.encode("utf-8")
    if len(data) >= _NO_STR:
        raise ValueError("string field too long for wire encoding")
    out += _U16.pack(len(data))
    out += data


def _get_str(data: bytes, pos: int) -> tuple[str | None, int]:
    (length,) = _U16.unpack_from(data, pos)
    pos += _U16.size
    if length == _NO_STR:
        return None, pos
    return data[pos:pos + length].decode("utf-8"), pos + length


def _put_value(out: bytearray, value: Any) -> None:
    """Encode a small routing value (the envelope ``key``)."""
    if value is None:
        out.append(_P_NONE)
    elif type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
        out.append(_P_INT)
        out += _I64.pack(value)
    elif type(value) is int and _INT64_MAX < value < (1 << 64):
        out.append(_P_UINT)
        out += _U64.pack(value)
    elif type(value) is str:
        out.append(_P_STR)
        _put_str(out, value)
    else:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_P_PICKLE)
        out += _U32.pack(len(blob))
        out += blob


def _get_value(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _P_NONE:
        return None, pos
    if tag == _P_INT:
        (value,) = _I64.unpack_from(data, pos)
        return value, pos + _I64.size
    if tag == _P_UINT:
        (value,) = _U64.unpack_from(data, pos)
        return value, pos + _U64.size
    if tag == _P_STR:
        return _get_str(data, pos)
    if tag == _P_PICKLE:
        (length,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        return _restricted_loads(data[pos:pos + length]), pos + length
    raise WireDecodeError(f"unknown value tag {tag:#x}")


# -- hot payload encodings ---------------------------------------------------------


def _try_put_payload(out: bytearray, message: Any) -> bool:
    """Append a fast-path payload encoding; False if ``message`` needs the
    pickle fallback. Exact-type checks only — subclasses may carry state the
    fixed layouts would drop."""
    hot = _hot()
    t = type(message)
    if message is None:
        out.append(_P_NONE)
        return True
    if t is hot["PositionIngested"]:
        return _try_put_position(out, message.message)
    if t is hot["CellObservation"]:
        if not (type(message.cell) is int
                and 0 <= message.cell < (1 << 64)
                and type(message.mmsi) is int
                and 0 <= message.mmsi < (1 << 64)):
            return False
        out.append(_P_CELLOBS)
        out += _CELLOBS_BODY.pack(message.cell, message.mmsi,
                                  message.t, message.lat, message.lon)
        return True
    if t is hot["ForecastShared"]:
        return _try_put_forecast(out, message)
    if t is hot["ForecastSharedBatch"]:
        return _try_put_forecast_batch(out, message)
    if t is hot["Heartbeat"]:
        out.append(_P_HEARTBEAT)
        _put_str(out, message.node_id)
        return True
    if t is hot["LoadReport"]:
        return _try_put_load_report(out, message)
    return False


def _try_put_load_report(out: bytearray, message: Any) -> bool:
    pairs = message.shard_messages
    if (type(message.node_id) is not str
            or type(pairs) is not tuple or len(pairs) > 0xFFFF
            or type(message.busy_ms) not in (int, float)):
        return False
    for gauge in (message.mailbox_depth, message.consumer_lag,
                  message.entities):
        if type(gauge) is not int or not 0 <= gauge < (1 << 64):
            return False
    for pair in pairs:
        if (type(pair) is not tuple or len(pair) != 2
                or type(pair[0]) is not int or type(pair[1]) is not int
                or not 0 <= pair[0] < (1 << 32)
                or not 0 <= pair[1] < (1 << 64)):
            return False
    out.append(_P_LOAD_REPORT)
    _put_str(out, message.node_id)
    out += _LOAD_HEAD.pack(message.mailbox_depth, message.consumer_lag,
                           float(message.busy_ms), message.entities,
                           len(pairs))
    for shard, count in pairs:
        out += _LOAD_PAIR.pack(shard, count)
    return True


def _try_put_position(out: bytearray, msg: Any) -> bool:
    hot = _hot()
    if type(msg) is not hot["AISMessage"]:
        return False
    source = _SOURCE_CODES.get(msg.source)
    if (source is None or not isinstance(msg.status, hot["NavigationStatus"])
            or not (type(msg.mmsi) is int and 0 <= msg.mmsi < (1 << 64))):
        return False
    heading = -1 if msg.heading is None else int(msg.heading)
    if not -1 <= heading <= 32767:
        return False
    out.append(_P_POSITION)
    out += _AIS_BODY.pack(msg.mmsi, msg.t, msg.lat, msg.lon, msg.sog,
                          msg.cog, heading, int(msg.status), source)
    return True


#: One-slot caches for the forecast fan-out: a vessel actor shares the
#: *same* forecast with every collision cell its trajectory touches, so
#: consecutive ForecastShared frames carry an identical positions tuple.
#: The encode cache holds a strong reference to the tuple and compares by
#: identity (no id() reuse hazard); the decode cache compares the packed
#: bytes. Races under threading at worst cause a miss, never a wrong hit.
_ENC_POSITIONS_CACHE: tuple | None = None   # (positions tuple, bytes)
_DEC_POSITIONS_CACHE: tuple | None = None   # (bytes, positions tuple)


def _positions_body(positions: tuple) -> bytes | None:
    """The packed positions region of a forecast payload (cached), or
    None when a position doesn't fit the fixed layout."""
    global _ENC_POSITIONS_CACHE
    cached = _ENC_POSITIONS_CACHE
    if cached is not None and cached[0] is positions:
        return cached[1]
    position_cls = _hot()["Position"]
    for p in positions:
        if type(p) is not position_cls:
            return None
    buf = bytearray()
    for p in positions:
        flags = (1 if p.sog is not None else 0) | \
                (2 if p.cog is not None else 0)
        buf += _POS_FIXED.pack(flags, p.t, p.lat, p.lon)
        if p.sog is not None:
            buf += _DOUBLE.pack(p.sog)
        if p.cog is not None:
            buf += _DOUBLE.pack(p.cog)
    body = bytes(buf)
    _ENC_POSITIONS_CACHE = (positions, body)
    return body


def _try_put_forecast(out: bytearray, message: Any) -> bool:
    hot = _hot()
    forecast = message.forecast
    if (type(forecast) is not hot["RouteForecast"]
            or type(message.cell) is not int
            or not 0 <= message.cell < (1 << 64)
            or type(forecast.mmsi) is not int
            or not 0 <= forecast.mmsi < (1 << 64)):
        return False
    positions = forecast.positions
    if len(positions) > 0xFFFF:
        return False
    body = _positions_body(positions)
    if body is None:
        return False
    out.append(_P_FORECAST)
    out += _FORECAST_HEAD.pack(message.cell, forecast.mmsi, len(positions))
    out += body
    return True


def _try_put_forecast_batch(out: bytearray, message: Any) -> bool:
    """One forecast, many destination cells: the positions region is
    written once, prefixed by the cell list."""
    hot = _hot()
    forecast = message.forecast
    cells = message.cells
    if (type(forecast) is not hot["RouteForecast"]
            or type(cells) is not tuple
            or not 1 <= len(cells) <= 0xFFFF
            or type(forecast.mmsi) is not int
            or not 0 <= forecast.mmsi < (1 << 64)):
        return False
    for cell in cells:
        if type(cell) is not int or not 0 <= cell < (1 << 64):
            return False
    positions = forecast.positions
    if len(positions) > 0xFFFF:
        return False
    body = _positions_body(positions)
    if body is None:
        return False
    out.append(_P_FORECAST_BATCH)
    out += _FORECAST_BATCH_HEAD.pack(forecast.mmsi, len(cells),
                                     len(positions))
    for cell in cells:
        out += _U64.pack(cell)
    out += body
    return True


def _get_positions(data: bytes, pos: int, count: int) -> tuple[tuple, int]:
    """Decode a packed positions region; returns ``(tuple, end_offset)``.

    Walks the flags bytes to find the region end, then checks the decode
    cache — the fan-out delivers the same positions blob to every cell of
    one forecast, and tuples are immutable to share."""
    global _DEC_POSITIONS_CACHE
    end = pos
    for _ in range(count):
        flags = data[end]
        end += _POS_FIXED.size + (8 if flags & 1 else 0) \
            + (8 if flags & 2 else 0)
    blob = bytes(data[pos:end])
    cached = _DEC_POSITIONS_CACHE
    if cached is not None and cached[0] == blob:
        return cached[1], end
    positions = []
    position_cls = _hot()["Position"]
    while pos < end:
        flags, t, lat, lon = _POS_FIXED.unpack_from(data, pos)
        pos += _POS_FIXED.size
        sog = cog = None
        if flags & 1:
            (sog,) = _DOUBLE.unpack_from(data, pos)
            pos += _DOUBLE.size
        if flags & 2:
            (cog,) = _DOUBLE.unpack_from(data, pos)
            pos += _DOUBLE.size
        positions.append(position_cls(t=t, lat=lat, lon=lon,
                                      sog=sog, cog=cog))
    positions_t = tuple(positions)
    _DEC_POSITIONS_CACHE = (blob, positions_t)
    return positions_t, end


def _get_payload(data: bytes, pos: int) -> tuple[Any, int]:
    global pickle_fallbacks
    hot = _hot()
    tag = data[pos]
    pos += 1
    if tag == _P_NONE:
        return None, pos
    if tag == _P_POSITION:
        (mmsi, t, lat, lon, sog, cog, heading, status,
         source) = _AIS_BODY.unpack_from(data, pos)
        pos += _AIS_BODY.size
        msg = hot["AISMessage"](
            mmsi=mmsi, t=t, lat=lat, lon=lon, sog=sog, cog=cog,
            heading=None if heading == -1 else heading,
            status=hot["NavigationStatus"](status),
            source=_SOURCE_NAMES[source])
        return hot["PositionIngested"](msg), pos
    if tag == _P_CELLOBS:
        cell, mmsi, t, lat, lon = _CELLOBS_BODY.unpack_from(data, pos)
        return hot["CellObservation"](cell=cell, mmsi=mmsi, t=t, lat=lat,
                                      lon=lon), pos + _CELLOBS_BODY.size
    if tag == _P_FORECAST:
        cell, mmsi, count = _FORECAST_HEAD.unpack_from(data, pos)
        pos += _FORECAST_HEAD.size
        positions_t, end = _get_positions(data, pos, count)
        forecast = hot["RouteForecast"](mmsi=mmsi, positions=positions_t)
        return hot["ForecastShared"](cell=cell, forecast=forecast), end
    if tag == _P_FORECAST_BATCH:
        mmsi, n_cells, count = _FORECAST_BATCH_HEAD.unpack_from(data, pos)
        pos += _FORECAST_BATCH_HEAD.size
        cells = struct.unpack_from(f">{n_cells}Q", data, pos)
        pos += 8 * n_cells
        positions_t, end = _get_positions(data, pos, count)
        forecast = hot["RouteForecast"](mmsi=mmsi, positions=positions_t)
        return hot["ForecastSharedBatch"](cells=cells,
                                          forecast=forecast), end
    if tag == _P_HEARTBEAT:
        node_id, pos = _get_str(data, pos)
        return hot["Heartbeat"](node_id), pos
    if tag == _P_LOAD_REPORT:
        node_id, pos = _get_str(data, pos)
        (depth, lag, busy_ms, entities,
         n_pairs) = _LOAD_HEAD.unpack_from(data, pos)
        pos += _LOAD_HEAD.size
        pairs = []
        for _ in range(n_pairs):
            shard, count = _LOAD_PAIR.unpack_from(data, pos)
            pos += _LOAD_PAIR.size
            pairs.append((shard, count))
        return hot["LoadReport"](
            node_id=node_id, mailbox_depth=depth, consumer_lag=lag,
            busy_ms=busy_ms, entities=entities,
            shard_messages=tuple(pairs)), pos
    if tag == _P_PICKLE:
        (length,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        pickle_fallbacks += 1
        return _restricted_loads(data[pos:pos + length]), pos + length
    raise WireDecodeError(f"unknown payload tag {tag:#x}")


# -- envelope fast path ------------------------------------------------------------


def _encode_envelope(env: Any) -> bytes | None:
    """The TAG_ENV encoding, or None when the envelope doesn't fit it
    (unknown kind, oversized strings, unpicklable key)."""
    global pickle_fallbacks
    kind = _KIND_CODES.get(env.kind)
    corr = -1 if env.corr_id is None else env.corr_id
    trace_id = env.trace_id
    if kind is None or not 0 <= env.hops <= 255 \
            or not _INT64_MIN <= corr <= _INT64_MAX:
        return None
    if trace_id is not None and not 0 <= trace_id < (1 << 64):
        return None
    out = bytearray([TAG_ENV])
    out += _ENV_HEAD.pack(kind | (_KIND_TRACED if trace_id is not None
                                  else 0), env.hops, corr)
    if trace_id is not None:
        out += _U64.pack(trace_id)
    try:
        _put_str(out, env.src)
        _put_str(out, env.entity)
        _put_str(out, env.target)
        _put_str(out, env.sender_node)
        _put_str(out, env.sender_name)
        _put_value(out, env.key)
    except (ValueError, TypeError):
        return None
    payload = bytearray()
    try:
        fits = _try_put_payload(payload, env.message)
    except (struct.error, ValueError, TypeError, OverflowError):
        fits = False
    if fits:
        out += payload
    else:
        blob = pickle.dumps(env.message, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_P_PICKLE)
        out += _U32.pack(len(blob))
        out += blob
        pickle_fallbacks += 1
    return bytes(out)


def _decode_envelope(data: bytes) -> Any:
    kind_code, hops, corr = _ENV_HEAD.unpack_from(data, 1)
    kind = _KIND_NAMES.get(kind_code & ~_KIND_TRACED)
    if kind is None:
        raise WireDecodeError(f"unknown envelope kind code {kind_code}")
    pos = 1 + _ENV_HEAD.size
    trace_id = None
    if kind_code & _KIND_TRACED:
        (trace_id,) = _U64.unpack_from(data, pos)
        pos += _U64.size
    src, pos = _get_str(data, pos)
    entity, pos = _get_str(data, pos)
    target, pos = _get_str(data, pos)
    sender_node, pos = _get_str(data, pos)
    sender_name, pos = _get_str(data, pos)
    key, pos = _get_value(data, pos)
    message, pos = _get_payload(data, pos)
    return _hot()["WireEnvelope"](
        kind=kind, src=src, message=message, entity=entity, key=key,
        target=target, sender_node=sender_node, sender_name=sender_name,
        corr_id=None if corr == -1 else corr, hops=hops,
        trace_id=trace_id)


# -- public API --------------------------------------------------------------------


def encode(obj: Any) -> bytes:
    """Serialize one wire message to a byte frame.

    :class:`WireEnvelope` instances take the struct fast path; everything
    else (and any envelope the fast path cannot represent) is pickled
    whole, which older peers and the tests decode identically.
    """
    global encoded_size, frames_encoded, fast_path_frames, pickle_fallbacks
    data = None
    if type(obj) is _hot()["WireEnvelope"]:
        data = _encode_envelope(obj)
    if data is None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        pickle_fallbacks += 1
    else:
        fast_path_frames += 1
    frames_encoded += 1
    encoded_size += len(data)
    return data


def decode(data: bytes) -> Any:
    """Deserialize a byte frame, resolving only trusted classes."""
    if not data:
        raise WireDecodeError("empty wire frame")
    try:
        if data[0] == TAG_ENV:
            return _decode_envelope(data)
        if data[0] == TAG_BATCH:
            raise WireDecodeError(
                "batch frame reached decode(); split with decode_batch()")
        return _restricted_loads(data)
    except WireDecodeError:
        raise
    except Exception as exc:
        raise WireDecodeError(f"undecodable wire frame: {exc}") from exc


# -- batch container ---------------------------------------------------------------


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """Pack already-encoded frames into one container frame.

    The batching transport coalesces per-peer traffic with this: one
    transport-level frame (one length prefix, one ``sendall``) carries many
    envelopes. Combined with the struct fast path above, a steady-state
    batch of hot messages contains no pickle headers at all.
    """
    out = bytearray([TAG_BATCH])
    out += _U32.pack(len(frames))
    for frame in frames:
        out += _U32.pack(len(frame))
        out += frame
    return bytes(out)


def decode_batch(data: bytes) -> list[bytes]:
    """Split a container frame back into its member frames."""
    if not data or data[0] != TAG_BATCH:
        raise WireDecodeError("not a batch frame")
    try:
        (count,) = _U32.unpack_from(data, 1)
        pos = 1 + _U32.size
        frames = []
        for _ in range(count):
            (length,) = _U32.unpack_from(data, pos)
            pos += _U32.size
            frames.append(data[pos:pos + length])
            if len(frames[-1]) != length:
                raise WireDecodeError("truncated batch frame")
            pos += length
        if pos != len(data):
            raise WireDecodeError("trailing bytes after batch frame")
        return frames
    except struct.error as exc:
        raise WireDecodeError(f"malformed batch frame: {exc}") from exc


def is_batch(frame: bytes) -> bool:
    return bool(frame) and frame[0] == TAG_BATCH
