"""Wire serialization for cluster messages.

The paper's Akka cluster serializes actor messages with a configured
serializer before they cross node boundaries. Here every
:class:`~repro.cluster.protocol.WireEnvelope` crosses the wire as one
``struct``-packed frame, selected by a one-byte tag. Envelope metadata
(kind, hops, correlation id, the two routing strings ``src`` and
``entity``) has a fixed head; the ``key`` and the payload follow in one
closed, tagged value encoding:

* **hot payloads** — the Figure 6 stream types get dedicated layouts, so
  the steady-state stream pays no per-field tags. ``PositionIngested``
  and ``CellObservation`` have fixed layouts. ``ForecastSharedBatch``
  travels as a *forecast block*: per-entry heads (MMSI, cell count, mark
  count, flags), the anchors, every cell as one ``>u8`` array and every
  mark as one ``>f8`` array, decoded through ``np.frombuffer`` into
  ``RouteForecast.from_marks`` rows (a forecast whose marks are not
  uniform carries its per-mark flags, SOG and COG after them). A lone
  share is a one-entry block.
* **the sharded batch** — a ``ShardedBatch`` is everything one node
  routes to one peer in one burst of work: each entry keeps its own
  entity, key, hop count and trace id, the entries' messages follow in
  order, and a run of consecutive forecast shares is one block.
* **everything else** — ``None``, ``bool``, ``int`` (signed 64-bit plus
  the unsigned H3 range), ``float``, ``numpy.float64``, ``str``,
  ``tuple``, ``list``, ``set``, ``dict`` and the *records* of
  :func:`_records`: a tuple of the message dataclasses (and the one
  IntEnum they carry), addressed by index, fields in declaration order;
  the index only has to agree between peers of the same build. A record
  met twice in one frame is written once and referenced after, so objects
  a payload shares (one forecast in many cells of a state transfer) stay
  shared after decoding.

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
_P_FORECAST_BATCH = 0x14  #: ForecastSharedBatch entries, as one forecast block
_P_SHARDED_BATCH = 0x15  #: protocol.ShardedBatch

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
_DOUBLE = struct.Struct(">d")
_ENTRY_HEAD = struct.Struct(">BB")  # hops, traced: a ShardedBatch entry
_BLOCK_HEAD = struct.Struct(">QHHB")  # mmsi, n_cells, n_marks, flags: a forecast
# A forecast's flags: bits 0-1 mark the anchor's SOG and COG as present
# (a position's flags), and two more say how its marks carry motion.
_MOTION = 0x04  #: every mark after the anchor carries the anchor's SOG and COG
_EXPLICIT = 0x08  #: the marks' own flags, SOG and COG follow the block's marks
#: Doubles after t, lat and lon, by SOG / COG presence bits.
_PRESENT = (0, 1, 1, 2)

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
    """The record vocabulary. A record's wire address is its position
    here, so reordering or removing one changes the format: peers must run
    the same build. No file stores an address (checkpoints pickle), so an
    entry may go with its class."""
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
        p.ShardedBatch,
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
    whose fields fit it, the value encoding for everything else. A
    ``ShardedBatch`` has only its layout."""
    if type(message) is _hot()["ShardedBatch"]:
        _put_sharded_batch(out, message)
        return
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
        parts = _share_parts(message)
        if parts is None:
            return False
        _put_forecast_block(out, [parts])
        return True
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


def _share_parts(share: Any) -> tuple | None:
    """A ``ForecastSharedBatch``'s pieces of a forecast block — its head,
    anchor, cells, mark columns and explicit marks — or None when it does
    not fit the block (the value encoding carries it then)."""
    hot = _hot()
    forecast, cells = share.forecast, share.cells
    if (
        type(forecast) is not hot["RouteForecast"]
        or type(forecast.mmsi) is not int
        or type(cells) is not tuple
        or not 1 <= len(cells) <= 0xFFFF
    ):
        return None
    for cell in cells:
        if type(cell) is not int:
            return None
    try:
        marks = _forecast_marks(forecast)
        if marks is None:
            return None
        count, flags, anchor, columns, explicit = marks
        head = _BLOCK_HEAD.pack(forecast.mmsi, len(cells), count, flags)
        return head, anchor, struct.pack(f">{len(cells)}Q", *cells), columns, explicit
    except (struct.error, AttributeError, TypeError, ValueError, OverflowError):
        return None


def _forecast_marks(forecast: Any) -> tuple | None:
    """``(mark count, flags, anchor bytes, mark columns, explicit marks)``
    of a forecast, or None when it does not fit the block.

    A forecast made by ``RouteForecast.from_marks`` is read from its
    arrays. One made from ``positions`` packs into the same bytes when its
    marks are uniform — every mark after the anchor bare, or every one
    carrying the anchor's SOG and COG bits — and carries its per-mark flags,
    SOG and COG explicitly otherwise."""
    position_cls = _hot()["Position"]
    state = vars(forecast)
    if "_motion" in state:
        anchor, ts, lats, lons = state["anchor"], state["ts"], state["lats"], state["lons"]
        count = len(ts)
        if type(anchor) is not position_cls or not count:
            return None
        if not ts.shape == lats.shape == lons.shape:
            return None
        columns = (ts[1:], lats[1:], lons[1:])
        motion, explicit = state["_motion"], b""
    else:
        positions = state["positions"]
        if type(positions) is not tuple:
            return None
        count = len(positions)
        if not count:
            return 0, 0, b"", None, b""
        for p in positions:
            if type(p) is not position_cls:
                return None
        anchor, marks = positions[0], positions[1:]
        columns = tuple([getattr(p, name) for p in marks] for name in ("t", "lat", "lon"))
        # Refuses a coordinate that is not a number, as the layout would.
        struct.pack(f">{3 * len(marks)}d", *columns[0], *columns[1], *columns[2])
        motion, explicit = _mark_motion(anchor, marks)
    extra = tuple(v for v in (anchor.sog, anchor.cog) if v is not None)
    flags = (anchor.sog is not None) | (anchor.cog is not None) << 1
    if motion and flags and count > 1:
        flags |= _MOTION
    if explicit:
        flags |= _EXPLICIT
    anchor_bytes = struct.pack(f">{3 + len(extra)}d", anchor.t, anchor.lat, anchor.lon, *extra)
    return count, flags, anchor_bytes, columns, explicit


def _bits(value: Any) -> bytes | None:
    return None if value is None else _DOUBLE.pack(value)


def _mark_motion(anchor: Any, marks: tuple) -> tuple[bool, bytes]:
    """``(motion, b"")`` for uniform marks: motion when they carry the
    anchor's SOG and COG bits. ``(False, explicit)`` otherwise: each mark's
    flags byte, then the SOG and COG values present."""
    if all(p.sog is None and p.cog is None for p in marks):
        return False, b""
    motion = (_bits(anchor.sog), _bits(anchor.cog))
    if all((_bits(p.sog), _bits(p.cog)) == motion for p in marks):
        return True, b""
    flags = bytes((p.sog is not None) | (p.cog is not None) << 1 for p in marks)
    values = [v for p in marks for v in (p.sog, p.cog) if v is not None]
    return False, flags + struct.pack(f">{len(values)}d", *values)


def _put_forecast_block(out: bytearray, shares: list) -> None:
    """Append ``shares`` (each its :func:`_share_parts`) as one block: the
    entry heads, the anchors, every cell as one ``>u8`` array, every mark
    after an anchor as one ``>f8`` array (all times, then all latitudes,
    then all longitudes), then the explicit marks in entry order."""
    out.append(_P_FORECAST_BATCH)
    out += _U32.pack(len(shares))
    for part in range(3):
        for parts in shares:
            out += parts[part]
    columns = [parts[3] for parts in shares if parts[3] is not None]
    if columns:
        marks = np.concatenate([column[axis] for axis in range(3) for column in columns])
        out += marks.astype(">f8").tobytes()
    for parts in shares:
        out += parts[4]


def _get_forecast_block(data: bytes, pos: int) -> tuple[list, int]:
    """Decode a forecast block into its ``ForecastSharedBatch`` messages;
    returns ``(messages, end_offset)``. A uniform forecast decodes into
    ``RouteForecast.from_marks`` over a copy of its own track, so a kept
    forecast does not pin the frame; an explicit one into ``positions``."""
    hot = _hot()
    (count,) = _U32.unpack_from(data, pos)
    pos += _U32.size
    if not 0 < count <= (len(data) - pos) // _BLOCK_HEAD.size:
        raise WireDecodeError(f"forecast block of {count} entries does not fit its frame")
    heads = struct.unpack_from(">" + "QHHB" * count, data, pos)
    pos += _BLOCK_HEAD.size * count
    n_cells, n_marks, flags = heads[1::4], heads[2::4], heads[3::4]
    n_anchor = sum(3 + _PRESENT[f & 3] for n, f in zip(n_marks, flags) if n)
    anchors = struct.unpack_from(f">{n_anchor}d", data, pos)
    pos += _DOUBLE.size * n_anchor
    cells = struct.unpack_from(f">{sum(n_cells)}Q", data, pos)
    pos += _U64.size * len(cells)
    # Anchors and marks in one native array, each forecast's track in
    # consecutive columns.
    starts: list[int] = []
    anchor_txy: list[float] = []
    a = width = 0
    for n, f in zip(n_marks, flags):
        if n:
            starts.append(width)
            anchor_txy += anchors[a : a + 3]
            a += 3 + _PRESENT[f & 3]
            width += n
    n_after = width - len(starts)
    marks = np.frombuffer(data, ">f8", 3 * n_after, pos).reshape(3, n_after)
    pos += 3 * _DOUBLE.size * n_after
    tracks = np.empty((3, width))
    is_mark = np.ones(width, dtype=bool)
    is_mark[starts] = False
    tracks[:, is_mark] = marks
    tracks[:, starts] = np.reshape(anchor_txy, (-1, 3)).T
    position, route_forecast = hot["Position"], hot["RouteForecast"]
    shares = []
    a = c = column = 0
    for mmsi, k, n, f in zip(heads[0::4], n_cells, n_marks, flags):
        share_cells = cells[c : c + k]
        c += k
        if f & ~0x0F or (f & _MOTION and f & _EXPLICIT) or (f and not n):
            raise WireDecodeError(f"bad forecast flags {f:#x}")
        if not n:
            forecast = route_forecast(mmsi=mmsi, positions=())
        else:
            values = anchors[a : a + 3 + _PRESENT[f & 3]]
            a += len(values)
            sog = values[3] if f & 1 else None
            cog = values[-1] if f & 2 else None
            anchor = position(values[0], values[1], values[2], sog, cog)
            track = tracks[:, column : column + n]
            column += n
            if f & _EXPLICIT:
                positions, pos = _explicit_marks(data, pos, anchor, track)
                forecast = route_forecast(mmsi=mmsi, positions=positions)
            else:
                ts, lats, lons = track.copy()
                motion = bool(f & _MOTION)
                forecast = route_forecast.from_marks(
                    mmsi, anchor, ts, lats, lons, motion=motion, floats=True
                )
        shares.append(hot["ForecastSharedBatch"](cells=share_cells, forecast=forecast))
    return shares, pos


def _explicit_marks(data: bytes, pos: int, anchor: Any, track: np.ndarray) -> tuple[tuple, int]:
    """The positions of a forecast whose marks carry their own flags, SOG
    and COG; returns ``(positions, end_offset)``."""
    count = track.shape[1] - 1
    flags = data[pos : pos + count]
    pos += count
    if len(flags) != count or max(flags, default=0) > 3:
        raise WireDecodeError("bad explicit mark flags")
    n_values = sum(_PRESENT[f] for f in flags)
    values = iter(struct.unpack_from(f">{n_values}d", data, pos))
    pos += _DOUBLE.size * n_values
    position = _hot()["Position"]
    positions = [anchor]
    for f, t, lat, lon in zip(flags, *track[:, 1:].tolist()):
        sog = next(values) if f & 1 else None
        cog = next(values) if f & 2 else None
        positions.append(position(t, lat, lon, sog, cog))
    return tuple(positions), pos


# -- sharded batches ---------------------------------------------------------------


def _put_sharded_batch(out: bytearray, batch: Any) -> None:
    """Append a ``ShardedBatch`` payload: every entry's head (hops, trace
    id, entity, key), then the entries' messages in order, a run of
    consecutive ``ForecastSharedBatch`` messages as one forecast block."""
    hot = _hot()
    entries = batch.entries
    if type(entries) is not tuple:
        raise TypeError("ShardedBatch entries must be a tuple")
    out.append(_P_SHARDED_BATCH)
    out += _U32.pack(len(entries))
    for entry in entries:
        if type(entry) is not tuple or len(entry) != 5:
            raise TypeError(f"a ShardedBatch entry is a 5-tuple, not {entry!r}")
        entity, key, message, hops, trace_id = entry
        if (
            type(hops) is not int
            or not 0 <= hops <= 255
            or not (trace_id is None or type(trace_id) is int and 0 <= trace_id < (1 << 64))
            or type(message) is type(batch)
        ):
            raise ValueError(f"entry does not fit a sharded batch: {entry!r}")
        out += _ENTRY_HEAD.pack(hops, trace_id is not None)
        if trace_id is not None:
            out += _U64.pack(trace_id)
        _put_str(out, entity)
        _put_value(out, key, {})
    share_cls = hot["ForecastSharedBatch"]
    run: list = []
    for entry in entries:
        message = entry[2]
        parts = _share_parts(message) if type(message) is share_cls else None
        if parts is not None:
            run.append(parts)
            continue
        if run:
            _put_forecast_block(out, run)
            run = []
        _put_payload(out, message)
    if run:
        _put_forecast_block(out, run)


def _get_sharded_batch(data: bytes, pos: int) -> tuple[Any, int]:
    (count,) = _U32.unpack_from(data, pos)
    pos += _U32.size
    heads = []
    for _ in range(count):
        hops, traced = _ENTRY_HEAD.unpack_from(data, pos)
        pos += _ENTRY_HEAD.size
        trace_id = None
        if traced:
            if traced != 1:
                raise WireDecodeError(f"bad entry trace flag {traced}")
            (trace_id,) = _U64.unpack_from(data, pos)
            pos += _U64.size
        entity, pos = _get_str(data, pos)
        key, pos = _get_value(data, pos, [])
        heads.append((entity, key, hops, trace_id))
    messages: list = []
    while len(messages) < count:
        tag = data[pos]
        if tag == _P_FORECAST_BATCH:
            shares, pos = _get_forecast_block(data, pos + 1)
            messages += shares
        elif tag == _P_SHARDED_BATCH:
            raise WireDecodeError("a sharded batch inside a sharded batch")
        else:
            message, pos = _get_payload(data, pos)
            messages.append(message)
    if len(messages) != count:
        raise WireDecodeError("a forecast block overruns its sharded batch")
    entries = tuple(
        (entity, key, message, hops, trace_id)
        for (entity, key, hops, trace_id), message in zip(heads, messages)
    )
    return _hot()["ShardedBatch"](entries=entries), pos


def _get_payload(data: bytes, pos: int) -> tuple[Any, int]:
    hot = _hot()
    tag = data[pos]
    if tag == _P_POSITION:
        *fields, heading, status, source = _AIS_BODY.unpack_from(data, pos + 1)
        # Positional, in field order: mmsi, t, lat, lon, sog, cog, heading,
        # status, source (keywords cost ~40 % more on this hot path).
        msg = hot["AISMessage"](
            *fields,
            None if heading == -1 else heading,
            hot["NavigationStatus"](status),
            _SOURCE_NAMES[source],
        )
        return hot["PositionIngested"](msg), pos + 1 + _AIS_BODY.size
    if tag == _P_CELLOBS:
        # cell, mmsi, t, lat, lon
        observation = hot["CellObservation"](*_CELLOBS_BODY.unpack_from(data, pos + 1))
        return observation, pos + 1 + _CELLOBS_BODY.size
    if tag == _P_FORECAST_BATCH:
        shares, pos = _get_forecast_block(data, pos + 1)
        if len(shares) != 1:
            raise WireDecodeError("a lone forecast share is a one-entry block")
        return shares[0], pos
    if tag == _P_SHARDED_BATCH:
        return _get_sharded_batch(data, pos + 1)
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
