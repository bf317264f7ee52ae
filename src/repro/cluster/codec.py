"""Wire serialization for cluster messages.

The paper's Akka cluster serializes actor messages with a configured
serializer before they cross node boundaries. Here every
:class:`~repro.cluster.protocol.WireEnvelope` crosses the wire as one
``struct``-packed frame, selected by a one-byte tag. Envelope metadata
(kind, hops, correlation id, the two routing strings ``src`` and
``entity``) has a fixed head; the ``key`` and the payload follow in one
closed, tagged value encoding:

* **hot payloads** — the Figure 6 stream types (``PositionIngested``,
  ``CellObservation``, ``ForecastSharedBatch``) get dedicated fixed
  layouts, so the steady-state stream pays no per-field tags.
* **everything else** — ``None``, ``bool``, ``int`` (signed 64-bit plus
  the unsigned H3 range), ``float``, ``numpy.float64``, ``str``,
  ``tuple``, ``list``, ``set``, ``dict`` and the *records* of
  :func:`_records`: an append-only tuple of the message dataclasses (and
  the one IntEnum they carry), addressed by index, fields in declaration
  order. A record met twice in one frame is written once and referenced
  after, so objects a payload shares (one forecast in many cells of a
  state transfer) stay shared after decoding.

Encoding refuses anything outside that vocabulary with a ``TypeError``
naming the type (a subclass of a listed type included); decoding calls no
constructor outside it and turns any malformed frame into
:class:`WireDecodeError`. Both transports carry the same frames — the
loopback transport round trips exactly the bytes the sockets carry, so
serialization bugs surface in the deterministic tests.
:func:`encode_batch` / :func:`decode_batch` pack many frames into one
container frame for the batching transport.

Counters (``encoded_size``, ``frames_encoded``) are module-level and
monotonic; under free threading they are best-effort observability, not
accounting.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import fields
from typing import Any, Sequence

import numpy as np


class WireDecodeError(ValueError):
    """A frame failed to decode."""


# -- observability counters --------------------------------------------------------

#: Total bytes produced by :func:`encode` (frame sizes, pre-transport).
encoded_size = 0
#: Frames encoded since import / the last :func:`reset_counters`.
frames_encoded = 0


def reset_counters() -> None:
    global encoded_size, frames_encoded
    encoded_size = 0
    frames_encoded = 0


def counters() -> dict:
    return {
        "encoded_size": encoded_size,
        "frames_encoded": frames_encoded,
        # Nothing is pickled; the key stays for the reports that read it.
        "pickle_fallbacks": 0,
    }


# -- frame tags --------------------------------------------------------------------

TAG_ENV = 0x01  #: struct-framed WireEnvelope
TAG_BATCH = 0x02  #: container of many frames (see encode_batch)

#: Code 1 is retired (it addressed named actors) and decodes as unknown.
_KIND_CODES = {"sharded": 0, "ask": 2, "reply": 3, "control": 4}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

# Value tags inside a TAG_ENV frame. 0x00 and 0x02-0x04 are the envelope
# key's original tags, so hot frames keep their bytes; 0x01 (the retired
# pickle payload) decodes as unknown.
_V_NONE = 0x00
_V_INT = 0x02  #: signed 64-bit int
_V_STR = 0x03
_V_UINT = 0x04  #: unsigned 64-bit int above INT64_MAX (H3 cell keys)
_V_FALSE = 0x05
_V_TRUE = 0x06
_V_FLOAT = 0x07
_V_NP_FLOAT = 0x08  #: numpy.float64
_V_TUPLE = 0x09
_V_LIST = 0x0A
_V_SET = 0x0B
_V_DICT = 0x0C
_V_RECORD = 0x0D  #: u8 index into _records(), then the fields
_V_REF = 0x0E  #: u32: the n-th record already decoded in this frame
# Fixed payload layouts (the envelope payload only; nested, the same
# messages travel as records).
_P_POSITION = 0x10  #: platform.messages.PositionIngested
_P_CELLOBS = 0x11  #: platform.messages.CellObservation
_P_FORECAST_BATCH = 0x14  #: platform.messages.ForecastSharedBatch

_SEQUENCE_TAGS = {tuple: _V_TUPLE, list: _V_LIST, set: _V_SET}
_SEQUENCE_TYPES = {tag: t for t, tag in _SEQUENCE_TAGS.items()}

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_ENV_HEAD = struct.Struct(">BBq")  # kind, hops, corr_id (-1 = None)
#: High bit of the kind byte flags an 8-byte trace id following the head;
#: untraced frames (the overwhelming majority) stay byte-identical to the
#: pre-telemetry encoding.
_KIND_TRACED = 0x80
_AIS_BODY = struct.Struct(">QdddddhBB")  # mmsi,t,lat,lon,sog,cog,hdg,st,src
#: Cells are unsigned: H3-style ids use the full 64-bit range (indexes
#: above ``2**63`` are routine at the collision-cell resolution).
_CELLOBS_BODY = struct.Struct(">QQddd")  # cell, mmsi, t, lat, lon
_FORECAST_BATCH_HEAD = struct.Struct(">QHH")  # mmsi, n_cells, n_positions
_POS_FIXED = struct.Struct(">Bddd")  # flags, t, lat, lon
_DOUBLE = struct.Struct(">d")

_NO_STR = 0xFFFF  #: length marker for a None string field
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

# The message types live in repro.platform (which itself imports
# repro.cluster), so they are bound lazily on first encode/decode rather
# than at module import.
_HOT: dict | None = None
#: ``(class, field names)`` per record index; names are None for an enum.
_RECORDS: tuple = ()
#: record class -> ``(index, field names)``
_RECORD_CODES: dict = {}


def _records() -> tuple:
    """The record vocabulary. Append only: a record's wire address is its
    position here, so reordering or removing one changes the format."""
    from repro.ais.message import AISMessage, NavigationStatus
    from repro.cluster import protocol as p
    from repro.events.collision import CollisionForecast
    from repro.events.proximity import ProximityPairEvent
    from repro.geo.track import Position
    from repro.models.base import RouteForecast
    from repro.models.voyage import PlanLeg, VoyagePlan, Waypoint
    from repro.platform import messages as m
    return (
        p.Join,
        p.Welcome,
        p.MemberUp,
        p.MemberDown,
        p.Heartbeat,
        p.Leave,
        p.ShardTableUpdate,
        p.LoadReport,
        p.MigrationPlan,
        p.Draining,
        p.ShardStateTransfer,
        p.ControlRequest,
        m.PositionIngested,
        m.CellObservation,
        m.ForecastBatch,
        m.ForecastSharedBatch,
        m.ForecastReady,
        m.ProximityAlert,
        m.CollisionAlert,
        m.VesselStateUpdate,
        m.EventRecord,
        m.VoyageAssigned,
        m.PlanReady,
        m.PruneTick,
        m.RestoreState,
        AISMessage,
        NavigationStatus,
        Position,
        RouteForecast,
        ProximityPairEvent,
        CollisionForecast,
        Waypoint,
        PlanLeg,
        VoyagePlan,
    )


def _hot() -> dict:
    global _HOT, _RECORDS, _RECORD_CODES
    if _HOT is None:
        records = tuple(
            (cls, None if issubclass(cls, enum.Enum) else tuple(f.name for f in fields(cls)))
            for cls in _records()
        )
        _RECORDS = records
        _RECORD_CODES = {cls: (index, names) for index, (cls, names) in enumerate(records)}
        from repro.cluster.protocol import WireEnvelope
        hot = {cls.__name__: cls for cls, _ in records}
        hot["WireEnvelope"] = WireEnvelope
        _HOT = hot
    return _HOT


_SOURCE_CODES = {"terrestrial": 0, "satellite": 1}
_SOURCE_NAMES = {v: k for k, v in _SOURCE_CODES.items()}


# -- value encoding ----------------------------------------------------------------


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
    return data[pos : pos + length].decode("utf-8"), pos + length


def _put_value(out: bytearray, value: Any, memo: dict) -> None:
    """Append ``value`` in the closed value encoding. ``memo`` maps the
    id of every record already written to this frame to its number."""
    t = type(value)
    if value is None:
        out.append(_V_NONE)
    elif t is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_V_INT)
            out += _I64.pack(value)
        elif _INT64_MAX < value < (1 << 64):
            out.append(_V_UINT)
            out += _U64.pack(value)
        else:
            raise ValueError(f"int {value} is outside the wire range")
    elif t is str:
        out.append(_V_STR)
        _put_str(out, value)
    elif t is float or t is np.float64:
        out.append(_V_FLOAT if t is float else _V_NP_FLOAT)
        out += _DOUBLE.pack(value)
    elif t is bool:
        out.append(_V_TRUE if value else _V_FALSE)
    elif t in _SEQUENCE_TAGS:
        out.append(_SEQUENCE_TAGS[t])
        out += _U32.pack(len(value))
        for item in value:
            _put_value(out, item, memo)
    elif t is dict:
        out.append(_V_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _put_value(out, key, memo)
            _put_value(out, item, memo)
    elif t not in _RECORD_CODES:
        raise TypeError(f"{t.__module__}.{t.__qualname__} is not a wire type")
    elif id(value) in memo:
        out.append(_V_REF)
        out += _U32.pack(memo[id(value)])
    else:
        index, names = _RECORD_CODES[t]
        out.append(_V_RECORD)
        out.append(index)
        if names is None:
            _put_value(out, int(value), memo)
        else:
            for name in names:
                _put_value(out, getattr(value, name), memo)
        # Numbered after its fields, in the order decoding finishes records.
        memo[id(value)] = len(memo)


def _get_value(data: bytes, pos: int, memo: list) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _V_NONE:
        return None, pos
    if tag == _V_INT:
        return _I64.unpack_from(data, pos)[0], pos + _I64.size
    if tag == _V_UINT:
        return _U64.unpack_from(data, pos)[0], pos + _U64.size
    if tag == _V_STR:
        value, pos = _get_str(data, pos)
        if value is None:
            raise WireDecodeError("None string marker in a value")
        return value, pos
    if tag == _V_FLOAT or tag == _V_NP_FLOAT:
        (value,) = _DOUBLE.unpack_from(data, pos)
        return (value if tag == _V_FLOAT else np.float64(value)), pos + _DOUBLE.size
    if tag == _V_FALSE or tag == _V_TRUE:
        return tag == _V_TRUE, pos
    if tag in _SEQUENCE_TYPES:
        (count,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        items = []
        for _ in range(count):
            item, pos = _get_value(data, pos, memo)
            items.append(item)
        return _SEQUENCE_TYPES[tag](items), pos
    if tag == _V_DICT:
        (count,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        value = {}
        for _ in range(count):
            key, pos = _get_value(data, pos, memo)
            value[key], pos = _get_value(data, pos, memo)
        return value, pos
    if tag == _V_RECORD:
        index = data[pos]
        if index >= len(_RECORDS):
            raise WireDecodeError(f"unknown record index {index}")
        cls, names = _RECORDS[index]
        pos += 1
        if names is None:
            value, pos = _get_value(data, pos, memo)
            record = cls(value)
        else:
            args = []
            for _ in names:
                arg, pos = _get_value(data, pos, memo)
                args.append(arg)
            record = cls(*args)
        memo.append(record)
        return record, pos
    if tag == _V_REF:
        (ref,) = _U32.unpack_from(data, pos)
        if ref >= len(memo):
            raise WireDecodeError(f"dangling record reference {ref}")
        return memo[ref], pos + _U32.size
    raise WireDecodeError(f"unknown value tag {tag:#x}")


# -- hot payload encodings ---------------------------------------------------------


def _put_payload(out: bytearray, message: Any) -> None:
    """Append the envelope payload: a fixed layout for an exact hot type
    whose fields fit it, the value encoding for everything else."""
    mark = len(out)
    try:
        if _try_put_hot(out, message):
            return
    except (struct.error, ValueError, TypeError, OverflowError):
        del out[mark:]
    _put_value(out, message, {})


def _try_put_hot(out: bytearray, message: Any) -> bool:
    """Append a fixed-layout payload; False if ``message`` has none or
    does not fit it. Exact-type checks only — subclasses may carry state
    the fixed layouts would drop."""
    hot = _hot()
    t = type(message)
    if t is hot["PositionIngested"]:
        return _try_put_position(out, message.message)
    if t is hot["CellObservation"]:
        if not (
            type(message.cell) is int
            and 0 <= message.cell < (1 << 64)
            and type(message.mmsi) is int
            and 0 <= message.mmsi < (1 << 64)
        ):
            return False
        out.append(_P_CELLOBS)
        out += _CELLOBS_BODY.pack(message.cell, message.mmsi, message.t, message.lat, message.lon)
        return True
    if t is hot["ForecastSharedBatch"]:
        return _try_put_forecast_batch(out, message)
    return False


def _try_put_position(out: bytearray, msg: Any) -> bool:
    hot = _hot()
    if type(msg) is not hot["AISMessage"]:
        return False
    source = _SOURCE_CODES.get(msg.source)
    if (
        source is None
        or not isinstance(msg.status, hot["NavigationStatus"])
        or not (type(msg.mmsi) is int and 0 <= msg.mmsi < (1 << 64))
    ):
        return False
    heading = -1 if msg.heading is None else int(msg.heading)
    if not -1 <= heading <= 32767:
        return False
    out.append(_P_POSITION)
    out += _AIS_BODY.pack(
        msg.mmsi, msg.t, msg.lat, msg.lon, msg.sog, msg.cog, heading, int(msg.status), source
    )
    return True


#: One-slot cache for the forecast fan-out: a vessel actor shares the
#: *same* forecast with every peer owning one of its collision cells, so
#: consecutive ForecastSharedBatch frames carry an identical positions
#: region. It holds a strong reference to the forecast and compares by
#: identity (no id() reuse hazard); a race under threading at worst
#: causes a miss, never a wrong hit.
_ENC_FORECAST_CACHE: tuple | None = None  # (forecast, bytes)


@functools.lru_cache(maxsize=64)
def _marks_struct(count: int, extra: int) -> struct.Struct:
    """``count`` marks of the positions region, each with ``extra``
    doubles (SOG and/or COG) after its flags, time and coordinates."""
    return struct.Struct(">" + ("Bddd" + "d" * extra) * count)


def _put_position(out: bytearray, p: Any) -> None:
    flags = (1 if p.sog is not None else 0) | (2 if p.cog is not None else 0)
    out += _POS_FIXED.pack(flags, p.t, p.lat, p.lon)
    if p.sog is not None:
        out += _DOUBLE.pack(p.sog)
    if p.cog is not None:
        out += _DOUBLE.pack(p.cog)


def _positions_region(forecast: Any) -> tuple[int, bytes] | None:
    """The position count and packed positions region of a forecast
    payload (cached), or None when a position doesn't fit the fixed layout.
    A forecast made by ``RouteForecast.from_marks`` is packed from its
    anchor and mark arrays, into the bytes its ``positions`` would give,
    without building them."""
    global _ENC_FORECAST_CACHE
    cached = _ENC_FORECAST_CACHE
    if cached is not None and cached[0] is forecast:
        return cached[1]
    position_cls = _hot()["Position"]
    buf = bytearray()
    state = vars(forecast)
    if "_motion" in state:
        anchor = state["anchor"]
        if type(anchor) is not position_cls:
            return None
        _put_position(buf, anchor)
        count = len(state["ts"])
        motion = state["_motion"]
        extra = tuple(v for v in (anchor.sog, anchor.cog) if v is not None) if motion else ()
        flags = buf[0] if motion else 0
        values: list = []
        for mark in zip(
            state["ts"][1:].tolist(), state["lats"][1:].tolist(), state["lons"][1:].tolist()
        ):
            values += (flags, *mark, *extra)
        buf += _marks_struct(count - 1, len(extra)).pack(*values)
    else:
        positions = forecast.positions
        if type(positions) is not tuple:
            return None
        count = len(positions)
        for p in positions:
            if type(p) is not position_cls:
                return None
            _put_position(buf, p)
    region = (count, bytes(buf))
    _ENC_FORECAST_CACHE = (forecast, region)
    return region


def _try_put_forecast_batch(out: bytearray, message: Any) -> bool:
    """One forecast, many destination cells: the positions region is
    written once, prefixed by the cell list."""
    hot = _hot()
    forecast = message.forecast
    cells = message.cells
    if (
        type(forecast) is not hot["RouteForecast"]
        or type(cells) is not tuple
        or not 1 <= len(cells) <= 0xFFFF
        or type(forecast.mmsi) is not int
        or not 0 <= forecast.mmsi < (1 << 64)
    ):
        return False
    for cell in cells:
        if type(cell) is not int or not 0 <= cell < (1 << 64):
            return False
    region = _positions_region(forecast)
    if region is None or region[0] > 0xFFFF:
        return False
    count, body = region
    out.append(_P_FORECAST_BATCH)
    out += _FORECAST_BATCH_HEAD.pack(forecast.mmsi, len(cells), count)
    for cell in cells:
        out += _U64.pack(cell)
    out += body
    return True


def _get_position(data: bytes, pos: int) -> tuple[Any, int]:
    flags, t, lat, lon = _POS_FIXED.unpack_from(data, pos)
    pos += _POS_FIXED.size
    sog = cog = None
    if flags & 1:
        (sog,) = _DOUBLE.unpack_from(data, pos)
        pos += _DOUBLE.size
    if flags & 2:
        (cog,) = _DOUBLE.unpack_from(data, pos)
        pos += _DOUBLE.size
    return _hot()["Position"](t=t, lat=lat, lon=lon, sog=sog, cog=cog), pos


def _get_forecast(data: bytes, pos: int, mmsi: int, count: int) -> tuple[Any, int]:
    """Decode a packed positions region into a forecast; returns
    ``(forecast, end_offset)``.

    A region whose marks are uniform — every mark after the anchor bare,
    or every one carrying the anchor's SOG and COG bytes — decodes into
    ``RouteForecast.from_marks``, the arrays the receiving node reads;
    any other into a ``positions`` tuple."""
    route_forecast = _hot()["RouteForecast"]
    if count:
        anchor, start = _get_position(data, pos)
        flags = data[start] if count > 1 else 0
        if flags == 0 or flags == data[pos]:
            tail = data[pos + _POS_FIXED.size : start] if flags else b""
            stride = _POS_FIXED.size + len(tail)
            end = start + stride * (count - 1)
            uniform = data[start:end:stride] == bytes((flags,)) * (count - 1)
            if uniform and tail:
                uniform = all(
                    data[i + _POS_FIXED.size : i + stride] == tail
                    for i in range(start, end, stride)
                )
            if uniform:
                values = _marks_struct(count - 1, len(tail) // 8).unpack_from(data, start)
                width = 4 + len(tail) // 8
                ts, lats, lons = (
                    np.array([first, *values[column::width]], dtype=np.float64)
                    for column, first in ((1, anchor.t), (2, anchor.lat), (3, anchor.lon))
                )
                forecast = route_forecast.from_marks(
                    mmsi, anchor, ts, lats, lons, motion=bool(flags), floats=True
                )
                return forecast, end
    positions = []
    for _ in range(count):
        position, pos = _get_position(data, pos)
        positions.append(position)
    return route_forecast(mmsi=mmsi, positions=tuple(positions)), pos


def _get_payload(data: bytes, pos: int) -> tuple[Any, int]:
    hot = _hot()
    tag = data[pos]
    if tag == _P_POSITION:
        mmsi, t, lat, lon, sog, cog, heading, status, source = _AIS_BODY.unpack_from(data, pos + 1)
        msg = hot["AISMessage"](
            mmsi=mmsi,
            t=t,
            lat=lat,
            lon=lon,
            sog=sog,
            cog=cog,
            heading=None if heading == -1 else heading,
            status=hot["NavigationStatus"](status),
            source=_SOURCE_NAMES[source],
        )
        return hot["PositionIngested"](msg), pos + 1 + _AIS_BODY.size
    if tag == _P_CELLOBS:
        cell, mmsi, t, lat, lon = _CELLOBS_BODY.unpack_from(data, pos + 1)
        observation = hot["CellObservation"](cell=cell, mmsi=mmsi, t=t, lat=lat, lon=lon)
        return observation, pos + 1 + _CELLOBS_BODY.size
    if tag == _P_FORECAST_BATCH:
        mmsi, n_cells, count = _FORECAST_BATCH_HEAD.unpack_from(data, pos + 1)
        pos += 1 + _FORECAST_BATCH_HEAD.size
        cells = struct.unpack_from(f">{n_cells}Q", data, pos)
        pos += 8 * n_cells
        forecast, end = _get_forecast(data, pos, mmsi, count)
        return hot["ForecastSharedBatch"](cells=cells, forecast=forecast), end
    return _get_value(data, pos, [])


# -- envelopes ---------------------------------------------------------------------


def _encode_envelope(env: Any) -> bytes:
    kind = _KIND_CODES.get(env.kind)
    corr = -1 if env.corr_id is None else env.corr_id
    trace_id = env.trace_id
    if (
        kind is None
        or not 0 <= env.hops <= 255
        or not _INT64_MIN <= corr <= _INT64_MAX
        or not (trace_id is None or 0 <= trace_id < (1 << 64))
    ):
        raise ValueError(f"envelope head does not fit the wire: {env!r}")
    out = bytearray([TAG_ENV])
    out += _ENV_HEAD.pack(kind | (_KIND_TRACED if trace_id is not None else 0), env.hops, corr)
    if trace_id is not None:
        out += _U64.pack(trace_id)
    _put_str(out, env.src)
    _put_str(out, env.entity)
    _put_value(out, env.key, {})
    _put_payload(out, env.message)
    return bytes(out)


def _decode_envelope(data: bytes) -> Any:
    hot = _hot()
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
    key, pos = _get_value(data, pos, [])
    message, pos = _get_payload(data, pos)
    # Reads past the end of a slice come back short, so this also catches
    # a frame truncated inside a string.
    if pos != len(data):
        raise WireDecodeError("frame length does not match its contents")
    return hot["WireEnvelope"](
        kind=kind,
        src=src,
        message=message,
        entity=entity,
        key=key,
        corr_id=None if corr == -1 else corr,
        hops=hops,
        trace_id=trace_id,
    )


# -- public API --------------------------------------------------------------------


def encode(env: Any) -> bytes:
    """Serialize one :class:`WireEnvelope` to a byte frame.

    Raises ``TypeError`` for anything that is not a ``WireEnvelope`` or
    carries a value outside the wire vocabulary, and ``ValueError`` for a
    field outside its range (an out-of-range int, an oversized string).
    """
    global encoded_size, frames_encoded
    if type(env) is not _hot()["WireEnvelope"]:
        raise TypeError(f"only a WireEnvelope crosses the wire, not {type(env).__qualname__}")
    data = _encode_envelope(env)
    frames_encoded += 1
    encoded_size += len(data)
    return data


def decode(data: bytes) -> Any:
    """Deserialize one envelope frame; any malformed frame raises
    :class:`WireDecodeError`."""
    if not data:
        raise WireDecodeError("empty wire frame")
    if data[0] == TAG_BATCH:
        raise WireDecodeError("batch frame reached decode(); split with decode_batch()")
    if data[0] != TAG_ENV:
        raise WireDecodeError(f"unknown frame tag {data[0]:#x}")
    try:
        return _decode_envelope(data)
    except WireDecodeError:
        raise
    except Exception as exc:
        raise WireDecodeError(f"undecodable wire frame: {exc}") from exc


# -- batch container ---------------------------------------------------------------


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """Pack already-encoded frames into one container frame.

    The batching transport coalesces per-peer traffic with this: one
    transport-level frame (one length prefix, one ``sendall``) carries many
    envelopes.
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
            frames.append(data[pos : pos + length])
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
