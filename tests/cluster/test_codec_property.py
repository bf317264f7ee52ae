"""Property-based tests for the closed wire codec.

Hypothesis drives the envelope and hot-payload space: H3 cell ids above
2**63 (the unsigned tag), empty payloads, unicode routing ids, optional
fields in every combination. The invariants under test:

* ``decode(encode(env))`` is ``env`` (forecast tracks bit for bit), and a
  hot payload in a sharded batch keeps its fixed-layout payload tag — a
  silent switch to the generic encoding would pass the round trip while
  losing the compact layout the stream relies on;
* a ``"sharded"`` frame carries a ``ShardedBatch`` and no other kind
  does: both encoding and decoding refuse any other shape;
* any value tree of the wire vocabulary round-trips exactly as pickle
  would: the same types (``tuple``/``list``/``set``, ``np.float64`` vs
  ``float``, float64 arrays, the IntEnum) and the same sharing of records;
* every message dataclass is a wire type, so a new message cannot reach
  the wire unregistered;
* a truncated or corrupted frame raises :class:`WireDecodeError` and
  nothing else, as does a forecast entry without marks or with unknown
  flags, or an array that overruns its frame;
* a forecast round-trips bitwise, as a block entry and as a record, and
  each decoded forecast owns its track;
* a run of forecast shares in a sharded batch is one block, each share
  decoding as it would alone, and every batch entry keeps its head.
"""

from __future__ import annotations

import inspect
import math
import pickle
import struct
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import repro.cluster.protocol as protocol_mod
import repro.platform.messages as messages_mod
from repro.ais.message import AISMessage, NavigationStatus
from repro.cluster import codec
from repro.cluster.protocol import (
    ControlRequest,
    Draining,
    Heartbeat,
    Join,
    Leave,
    LoadReport,
    MemberUp,
    MigrationPlan,
    ShardedBatch,
    ShardStateTransfer,
    ShardTableUpdate,
    Welcome,
    WireEnvelope,
)
from repro.events.collision import CollisionForecast
from repro.events.proximity import ProximityPairEvent
from repro.geo.track import Position
from repro.models.base import RouteForecast
from repro.models.voyage import PlanLeg, VoyagePlan, Waypoint
from repro.platform import LoopbackCluster
from repro.platform.messages import (
    CellObservation,
    CollisionAlert,
    EventRecord,
    ForecastBatch,
    ForecastReady,
    ForecastSharedBatch,
    PlanReady,
    PositionIngested,
    ProximityAlert,
    RestoreState,
    VesselStateUpdate,
    VoyageAssigned,
)
from tests.cluster.test_batching import (
    HOT_ENVELOPES,
    VALUE_ENVELOPES,
    mislabelled_frames,
    sharded_envelope,
)
from tests.forecasts import comparable, make_forecast

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: Any uint64 — H3 indexes at high resolutions exceed 2**63, which must
#: take the unsigned tag rather than overflowing the signed one.
uint64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
big_cells = st.integers(min_value=1 << 63, max_value=(1 << 64) - 1)
#: Routing strings: unicode (including astral planes), bounded so the
#: utf-8 encoding stays under the codec's 0xFFFF length marker.
wire_str = st.text(max_size=64)
opt_str = st.none() | wire_str

ais_messages = st.builds(
    AISMessage,
    mmsi=uint64,
    t=finite,
    lat=finite,
    lon=finite,
    sog=finite,
    cog=finite,
    heading=st.none() | st.integers(min_value=0, max_value=359),
    status=st.sampled_from(list(NavigationStatus)),
    source=st.sampled_from(["terrestrial", "satellite"]),
)

positions = st.builds(
    Position, t=finite, lat=finite, lon=finite, sog=st.none() | finite, cog=st.none() | finite
)



@st.composite
def forecasts(draw):
    """A forecast of 0-8 marks after its anchor, whose SOG and COG are set
    or None."""
    anchor = draw(positions)
    marks = draw(st.lists(st.tuples(finite, finite, finite), max_size=8))
    ts, lats, lons = np.array([(anchor.t, anchor.lat, anchor.lon), *marks]).T.copy()
    return RouteForecast(draw(uint64), anchor, ts, lats, lons)


hot_payloads = st.one_of(
    st.none(),  # empty payload
    st.builds(PositionIngested, message=ais_messages),
    st.builds(CellObservation, cell=big_cells, mmsi=uint64, t=finite, lat=finite, lon=finite),
    st.builds(
        ForecastSharedBatch,
        cells=st.lists(uint64, min_size=1, max_size=12).map(tuple),
        forecast=forecasts(),
    ),
)

#: The payload tag each hot type keeps: its fixed layout (0x00: no payload).
FIXED_LAYOUT_TAGS = {
    type(None): 0x00,
    PositionIngested: 0x10,
    CellObservation: 0x11,
    ForecastSharedBatch: 0x14,
}

wire_keys = st.none() | uint64 | int64 | wire_str
hops = st.integers(min_value=0, max_value=255)
corr_ids = st.none() | st.integers(min_value=0, max_value=(1 << 62))


@st.composite
def envelopes(draw):
    """A one-entry sharded frame with a hot payload, or an ask, reply or
    control frame carrying one as a value."""
    kind = draw(st.sampled_from(["sharded", "ask", "reply", "control"]))
    src, message = draw(wire_str), draw(hot_payloads)
    if kind == "sharded":
        entry = (draw(opt_str), draw(wire_keys), message, draw(hops), draw(st.none() | uint64))
        message = ShardedBatch(entries=(entry,))
    return WireEnvelope(kind=kind, src=src, message=message, corr_id=draw(corr_ids))


def with_payload(env: WireEnvelope, message) -> WireEnvelope:
    """``env`` with ``message`` in place of its one entry's message."""
    ((entity, key, _, hop, trace_id),) = env.message.entries
    return replace(env, message=ShardedBatch(entries=((entity, key, message, hop, trace_id),)))


def payload_tag(env: WireEnvelope) -> int:
    """The first byte of a one-entry sharded frame's message in its frame."""
    return codec.encode(env)[len(codec.encode(with_payload(env, None))) - 1]


@settings(deadline=None, max_examples=200)
@given(env=envelopes())
def test_hot_envelope_roundtrips_without_pickle(env):
    assert comparable(codec.decode(codec.encode(env))) == comparable(env)
    if env.kind == "sharded":
        message = env.message.entries[0][2]
        assert payload_tag(env) == FIXED_LAYOUT_TAGS[type(message)], env


@settings(deadline=None, max_examples=100)
@given(cell=big_cells, mmsi=uint64, t=finite, lat=finite, lon=finite)
def test_h3_cells_above_signed_range_roundtrip(cell, mmsi, t, lat, lon):
    """Cell ids and keys above 2**63 survive exactly (no float drift, no
    signed overflow)."""
    env = sharded_envelope(
        "node-00", "cell", cell, CellObservation(cell=cell, mmsi=mmsi, t=t, lat=lat, lon=lon)
    )
    ((_, key, message, _, _),) = codec.decode(codec.encode(env)).message.entries
    assert key == cell and type(key) is int
    assert message.cell == cell
    assert payload_tag(env) == FIXED_LAYOUT_TAGS[CellObservation]


@settings(deadline=None, max_examples=100)
@given(kind=st.sampled_from(["sharded", "ask", "control"]), src=wire_str, entity=opt_str)
def test_empty_payload_roundtrips(kind, src, entity):
    if kind == "sharded":
        env = sharded_envelope(src, entity, None, None)
    else:
        env = WireEnvelope(kind=kind, src=src)
    frame = codec.encode(env)
    decoded = codec.decode(frame)
    assert decoded == env
    assert frame[-1] == FIXED_LAYOUT_TAGS[type(None)]


@settings(deadline=None, max_examples=100)
@given(batch=st.lists(envelopes(), min_size=0, max_size=10))
def test_batch_container_roundtrips(batch):
    frames = [codec.encode(env) for env in batch]
    packed = codec.encode_batch(frames)
    assert codec.decode_batch(packed) == frames
    assert comparable([codec.decode(f) for f in codec.decode_batch(packed)]) == comparable(batch)


def test_nan_position_still_roundtrips_via_fallback():
    """NaN is representable in the struct layout; this documents that a
    NaN fix round-trips bit-exactly rather than erroring."""
    msg = AISMessage(mmsi=1, t=0.0, lat=math.nan, lon=1.0, sog=0.0, cog=0.0)
    env = sharded_envelope("n", "vessel", 1, PositionIngested(msg))
    decoded = codec.decode(codec.encode(env))
    assert math.isnan(decoded.message.entries[0][2].message.lat)


# -- the value encoding ------------------------------------------------------------


def assert_same(a, b, seen=None) -> None:
    """``a`` equals ``b`` with exact types at every level, and the records
    shared within ``a`` are shared within ``b`` — no more, no fewer."""
    seen = ({}, {}) if seen is None else seen
    assert type(a) is type(b), (a, b)
    if is_dataclass(a):
        if id(a) in seen[0] or id(b) in seen[1]:
            assert seen[0].get(id(a)) is b and seen[1].get(id(b)) is a, (a, b)
            return
        seen[0][id(a)], seen[1][id(b)] = b, a
        for f in fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), seen)
    elif type(a) is np.ndarray:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (a, b)
    elif type(a) in (tuple, list):
        assert len(a) == len(b), (a, b)
        for x, y in zip(a, b):
            assert_same(x, y, seen)
    elif type(a) is dict:
        assert len(a) == len(b), (a, b)
        for (ka, va), (kb, vb) in zip(a.items(), b.items()):
            assert_same(ka, kb, seen)
            assert_same(va, vb, seen)
    else:
        assert a == b, (a, b)
        if isinstance(a, float):
            assert math.copysign(1.0, a) == math.copysign(1.0, b)  # -0.0 stays -0.0


def envelope_of(message) -> WireEnvelope:
    """The frame ``message`` rides: a ``ShardedBatch`` its sharded frame,
    anything else a reply."""
    if type(message) is ShardedBatch:
        return WireEnvelope(kind="sharded", src="node-01", message=message)
    return WireEnvelope(kind="reply", src="node-01", corr_id=3, message=message)


def round_trip(message):
    """``message`` through one envelope frame, and through pickle."""
    env = envelope_of(message)
    return (
        codec.decode(codec.encode(env)).message,
        pickle.loads(pickle.dumps(env, protocol=pickle.HIGHEST_PROTOCOL)).message,
    )


any_float = finite | finite.map(np.float64)
float64_arrays = st.lists(finite, max_size=8).map(lambda v: np.array(v, dtype=np.float64))
scalars = (
    st.none()
    | st.booleans()
    | uint64
    | int64
    | any_float
    | float64_arrays
    | wire_str
    | st.sampled_from(list(NavigationStatus))
)
#: Set members and dict keys: ints and strings only, so ``1 == 1.0 ==
#: True`` never merges two members of different types.
hashables = int64 | wire_str
records = st.one_of(
    positions,
    forecasts(),
    ais_messages,
    st.builds(Heartbeat, node_id=wire_str),
    st.builds(
        LoadReport,
        node_id=wire_str,
        mailbox_depth=uint64,
        consumer_lag=uint64,
        busy_ms=any_float,
        entities=uint64,
        shard_messages=st.lists(st.tuples(uint64, uint64), max_size=4).map(tuple),
    ),
    st.builds(
        ProximityPairEvent,
        mmsi_a=uint64,
        mmsi_b=uint64,
        t=finite,
        distance_m=finite,
        lat=finite,
        lon=finite,
    ),
    st.builds(Waypoint, lat=finite, lon=finite),
)


@st.composite
def value_trees(draw):
    """A tree of the wire vocabulary in which a few records recur."""
    shared = draw(st.lists(records, min_size=1, max_size=3))
    leaves = scalars | records | st.sampled_from(shared)

    def branches(kids):
        return st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.sets(hashables, max_size=4),
            st.dictionaries(hashables, kids, max_size=4),
            st.builds(
                ControlRequest, op=wire_str, params=st.dictionaries(wire_str, kids, max_size=3)
            ),
            st.builds(EventRecord, kind=wire_str, t=finite, payload=kids),
            st.builds(
                RestoreState,
                entity=wire_str,
                key=hashables,
                state=st.dictionaries(wire_str, kids, max_size=3),
                handoff=st.booleans(),
            ),
        )

    # Each shared record is met at least twice, however small the tree.
    return [shared, draw(st.recursive(leaves, branches, max_leaves=16)), tuple(shared)]


@settings(deadline=None, max_examples=100)
@given(tree=value_trees())
def test_value_tree_round_trips_like_pickle(tree):
    decoded, pickled = round_trip(tree)
    assert_same(decoded, pickled)
    assert_same(decoded, tree)


FIX = AISMessage(
    mmsi=239000001,
    t=1_234.5,
    lat=37.95,
    lon=23.55,
    sog=11.5,
    cog=271.0,
    heading=270,
    status=NavigationStatus.AT_ANCHOR,
    source="satellite",
)
FORECAST = make_forecast(7, [(0.0, 37.9, 23.5), (300.0, 37.91, 23.52)], sog=10.0, cog=90.0)
PAIR = ProximityPairEvent(mmsi_a=7, mmsi_b=8, t=99.0, distance_m=120.5, lat=37.9, lon=23.5)
CLOSE = CollisionForecast(
    mmsi_a=7,
    mmsi_b=8,
    t_expected=400.0,
    lat=37.9,
    lon=23.5,
    min_distance_m=80.0,
    forecast_at=100.0,
)
PLAN = VoyagePlan(
    origin=Waypoint(37.9, 23.5),
    legs=(
        PlanLeg(
            path=(Waypoint(37.9, 23.5), Waypoint(38.0, 24.0)),
            sog_kn=12.0,
            distance_m=5e4,
            duration_s=8e3,
            fuel_kg=900.0,
            diverted=False,
        ),
    ),
    planned_t=0.0,
    issued_t=-3_600.0,
    depart_t=0.0,
    eta_t=8e3,
    deadline_t=9e3,
    fuel_kg=900.0,
    diverted=False,
    feasible=True,
)

#: One instance of every message dataclass that may ride an envelope.
MESSAGE_SAMPLES = [
    Join("node-02", ("127.0.0.1", 4242)),
    Welcome(
        members=(("node-00", ("127.0.0.1", 4241)), ("node-01", "node-01")),
        table_epoch=3,
        table_nodes=("node-00", "node-01"),
        table_overrides=((5, "node-01"),),
    ),
    MemberUp("node-01", ("127.0.0.1", 4243)),
    Heartbeat("node-01"),
    Leave("node-01"),
    ShardTableUpdate(5, ("node-00", "node-01"), ((3, "node-00"),)),
    LoadReport(
        node_id="node-01",
        mailbox_depth=4,
        consumer_lag=0,
        busy_ms=np.float64(12.5),
        entities=9,
        shard_messages=((3, 40), (7, 2)),
    ),
    MigrationPlan(epoch=6, moves=((3, "node-00", "node-01"),)),
    Draining("node-02"),
    ShardStateTransfer(
        shard=3,
        epoch=6,
        entries=(
            ("vessel", 7, {"history": [FIX], "marks": {("proximity", (7, 8), 0): 99.0}}),
            ("collision", 9799833001222216045, {"forecasts": {7: FORECAST}}),
        ),
    ),
    ControlRequest(op="flush_stage", params={"stage": "writer"}),
    PositionIngested(FIX),
    CellObservation(cell=613561124432, mmsi=7, t=99.0, lat=37.9, lon=23.5),
    ForecastBatch(forecasts=(FORECAST, FORECAST)),
    ForecastSharedBatch(cells=(613561124432, 9799833001222216045), forecast=FORECAST),
    ForecastReady(forecast=FORECAST, t_submitted=12.0),
    ProximityAlert(event=PAIR),
    CollisionAlert(event=CLOSE),
    VesselStateUpdate(
        mmsi=7,
        t=99.0,
        lat=37.9,
        lon=23.5,
        sog=10.0,
        cog=90.0,
        forecast=FORECAST,
        event_flags=("proximity:8",),
    ),
    EventRecord(kind="proximity", t=99.0, payload=PAIR),
    VoyageAssigned(mmsi=7, waypoints=((37.9, 23.5), (38.0, 24.0)), deadline_t=9e3),
    PlanReady(plan=PLAN, t_submitted=5.0),
    RestoreState(entity="vessel", key=7, state={"history": (FIX,)}, handoff=True),
    ShardedBatch(
        entries=(
            ("vessel", 7, PositionIngested(FIX), 0, (1 << 48) | 5),
            (
                "collision",
                613561124432,
                ForecastSharedBatch(cells=(613561124432,), forecast=FORECAST),
                0,
                None,
            ),
            (
                "collision",
                9799833001222216045,
                ForecastSharedBatch(
                    cells=(9799833001222216045, 613561124433),
                    forecast=make_forecast(8, [(5.0, 37.0, 23.0)]),
                ),
                2,
                None,
            ),
            ("vessel", 7, CollisionAlert(event=CLOSE), 0, 9),
        ),
    ),
]


def test_every_message_dataclass_is_a_wire_type():
    """Each dataclass of the cluster protocol and the platform vocabulary
    (the envelope aside) has a sample here, and each sample round-trips:
    a new message fails this test until the codec registers it."""
    declared = {
        cls
        for module in (protocol_mod, messages_mod)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if is_dataclass(cls) and cls.__module__ == module.__name__
    } - {WireEnvelope}
    assert {type(sample) for sample in MESSAGE_SAMPLES} == declared
    for sample in MESSAGE_SAMPLES:
        decoded, pickled = round_trip(sample)
        assert_same(decoded, pickled)
        assert_same(decoded, sample)


def test_truncated_or_flipped_frames_raise_only_wire_decode_error():
    """Every strict prefix of a valid frame is refused. A single flipped
    byte may still decode (a float field is any 8 bytes), but when it does
    not, the error is a WireDecodeError — never another exception."""
    frames = [codec.encode(env) for env in HOT_ENVELOPES + VALUE_ENVELOPES] + [
        codec.encode(envelope_of(sample)) for sample in MESSAGE_SAMPLES
    ]
    for frame in frames:
        for end in range(len(frame)):
            with pytest.raises(codec.WireDecodeError):
                codec.decode(frame[:end])
        for pos in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                corrupt = bytearray(frame)
                corrupt[pos] ^= mask
                try:
                    codec.decode(bytes(corrupt))
                except codec.WireDecodeError:
                    pass


def test_state_transfer_keeps_a_shared_forecast_shared():
    """A handoff carrying one forecast in two cells restores it as one
    object, and a newcomer meeting both cells is tested once."""
    fixes = [(1_000.0 + 300.0 * i, 10.0, 20.0) for i in range(7)]
    shared = make_forecast(111, fixes)
    cells = (613561124432, 613561124433)
    transfer = ShardStateTransfer(
        shard=0,
        epoch=1,
        entries=tuple(("collision", cell, {"forecasts": {111: shared}}) for cell in cells),
    )
    env = WireEnvelope(kind="control", src="node-01", message=transfer)
    decoded = codec.decode(codec.encode(env)).message
    cluster = LoopbackCluster(num_nodes=1)
    try:
        cluster.nodes[0]._on_state_transfer(decoded)
        cluster.settle()
        table = cluster.platforms[0].wiring.collision_cells
        assert table.cells[cells[0]] is table.cells[cells[1]]
        table.share_forecast(cells, make_forecast(222, fixes))
        assert table.pair_tests == 1
    finally:
        cluster.shutdown()


# -- forecasts --------------------------------------------------------------------


def share_envelope(forecast: RouteForecast, cells: tuple) -> WireEnvelope:
    message = ForecastSharedBatch(cells=cells, forecast=forecast)
    return sharded_envelope("n", "collision", None, message)


def forecast_frame(forecast: RouteForecast, cells: tuple) -> bytes:
    return codec.encode(share_envelope(forecast, cells))


def decoded_forecast(frame: bytes) -> RouteForecast:
    """The forecast of a lone share's frame, decoded."""
    return codec.decode(frame).message.entries[0][2].forecast


def bits(value: float) -> bytes:
    return struct.pack(">d", value)


def anchor_bits(forecast: RouteForecast) -> tuple:
    anchor = forecast.anchor
    return tuple(None if v is None else bits(v) for v in vars(anchor).values())


def owns_its_track(forecast: RouteForecast) -> bool:
    """The three arrays are rows of one native float64 copy of their own."""
    base = forecast.ts.base
    arrays = (forecast.ts, forecast.lats, forecast.lons)
    rows = all(a.dtype == np.float64 and a.dtype.isnative and a.base is base for a in arrays)
    return rows and base.nbytes == 3 * forecast.ts.nbytes


@settings(deadline=None, max_examples=200)
@given(forecast=forecasts(), cells=st.lists(uint64, min_size=1, max_size=4).map(tuple))
def test_a_forecast_round_trips_bitwise_as_a_block_entry(forecast, cells):
    frame = forecast_frame(forecast, cells)
    assert payload_tag(share_envelope(forecast, cells)) == FIXED_LAYOUT_TAGS[ForecastSharedBatch]
    decoded = decoded_forecast(frame)
    assert comparable(decoded) == comparable(forecast)
    assert anchor_bits(decoded) == anchor_bits(forecast)
    assert owns_its_track(decoded)
    assert forecast_frame(decoded, cells) == frame


@settings(deadline=None, max_examples=100)
@given(forecast=forecasts())
def test_a_forecast_round_trips_bitwise_as_a_record(forecast):
    """Nested in a record, a forecast travels as its fields; each array
    decodes into a native copy that owns its memory."""
    message = ForecastReady(forecast=forecast, t_submitted=3.0)
    decoded, pickled = round_trip(message)
    assert_same(decoded, pickled)
    assert_same(decoded, message)
    assert anchor_bits(decoded.forecast) == anchor_bits(forecast)
    for name in ("ts", "lats", "lons"):
        array = getattr(decoded.forecast, name)
        assert array.flags.owndata and array.dtype.isnative


def test_only_1d_float64_arrays_are_wire_values():
    forecast = make_forecast(7, [(0.0, 37.9, 23.5), (300.0, 37.91, 23.52)])
    for bad in (
        forecast.ts.astype(np.float32),
        forecast.ts.astype(np.int64),
        np.stack([forecast.ts, forecast.lats]),
    ):
        with pytest.raises(TypeError, match="ndarray"):
            codec.encode(WireEnvelope(kind="reply", src="n", message=[bad]))
        # A share whose track is not 1-D float64 leaves the block for the
        # value encoding, which refuses it the same way.
        odd = replace(forecast, ts=bad)
        with pytest.raises(TypeError, match="ndarray"):
            forecast_frame(odd, (613561124432,))


def block_head_at(frame: bytes) -> int:
    """Offset of the first entry head of a lone share's forecast block."""
    payload = frame.index(bytes([0x14, 0, 0, 0, 1]))
    return payload + 5


@pytest.mark.parametrize("n_marks, flags", [(0, 0), (0, 3), (2, 0x04), (2, 0x08), (2, 0x0F)])
def test_a_malformed_block_entry_raises_wire_decode_error(n_marks, flags):
    """A block entry has at least its anchor and defines flag bits 0-1
    only: no marks, or any other flag bit, is a malformed frame."""
    frame = bytearray(forecast_frame(make_forecast(7, [(0.0, 1.0, 2.0), (300.0, 1.1, 2.1)]), (5,)))
    head = block_head_at(bytes(frame))
    assert struct.unpack_from(">QHHB", frame, head) == (7, 1, 2, 0)
    struct.pack_into(">HB", frame, head + 10, n_marks, flags)
    with pytest.raises(codec.WireDecodeError, match="forecast entry"):
        codec.decode(bytes(frame))


@pytest.mark.parametrize("count", [8, 1000, 0xFFFFFFFF])
def test_an_array_that_overruns_its_frame_raises_wire_decode_error(count):
    forecast = make_forecast(7, [(0.0, 1.0, 2.0), (300.0, 1.1, 2.1), (600.0, 1.2, 2.2)])
    frame = bytearray(
        codec.encode(WireEnvelope(kind="reply", src="n", message=[forecast.ts, forecast.lats]))
    )
    # The second array is the frame's last: its count overruns what is left.
    at = len(frame) - 3 * 8 - 4
    assert frame[at - 1] == 0x0F and struct.unpack_from(">I", frame, at) == (3,)
    struct.pack_into(">I", frame, at, count)
    with pytest.raises(codec.WireDecodeError, match="overruns"):
        codec.decode(bytes(frame))


# -- forecast blocks ---------------------------------------------------------------

cell_tuples = st.lists(uint64, min_size=1, max_size=4).map(tuple)


def sharded_frame(messages: list) -> tuple[bytes, WireEnvelope]:
    entries = tuple(("collision", i, message, 0, None) for i, message in enumerate(messages))
    env = WireEnvelope(kind="sharded", src="n", message=ShardedBatch(entries=entries))
    return codec.encode(env), env


@settings(deadline=None, max_examples=150)
@given(shares=st.lists(st.tuples(forecasts(), cell_tuples), min_size=1, max_size=8))
def test_a_run_of_shares_is_one_block_and_each_decodes_as_alone(shares):
    """Consecutive shares in a sharded batch travel as one block, and each
    decodes as its lone frame does: the same track bit for bit, and a track
    of its own, so a kept forecast does not pin the frame."""
    messages = [ForecastSharedBatch(cells=cells, forecast=forecast) for forecast, cells in shares]
    frame, env = sharded_frame(messages)
    heads, _ = sharded_frame([None] * len(messages))
    payloads = len(heads) - len(messages)
    assert frame[payloads] == 0x14
    assert struct.unpack_from(">I", frame, payloads + 1)[0] == len(shares)
    decoded = codec.decode(frame)
    assert comparable(decoded) == comparable(env) and codec.encode(decoded) == frame
    kept = []
    for entry, message in zip(decoded.message.entries, messages):
        got = entry[2].forecast
        alone = decoded_forecast(forecast_frame(message.forecast, message.cells))
        assert comparable(got) == comparable(message.forecast) == comparable(alone)
        assert anchor_bits(got) == anchor_bits(alone)
        assert entry[2].cells == message.cells
        assert owns_its_track(got)
        assert not any(np.shares_memory(got.ts, other) for other in kept)
        kept.append(got.ts)


sharded_entries = st.tuples(
    opt_str,
    st.none() | uint64 | int64 | wire_str,
    hot_payloads
    | st.builds(ForecastSharedBatch, cells=cell_tuples, forecast=forecasts())
    | st.builds(CollisionAlert, event=st.just(CLOSE)),
    st.integers(min_value=0, max_value=255),
    st.none() | uint64,
)


@settings(deadline=None, max_examples=150)
@given(entries=st.lists(sharded_entries, max_size=12))
def test_sharded_batch_round_trips_every_entry(entries):
    """Each entry keeps its entity, key, hop count, trace id and payload,
    in order, whatever mix of layouts the payloads take."""
    env = WireEnvelope(kind="sharded", src="node-02", message=ShardedBatch(entries=tuple(entries)))
    frame = codec.encode(env)
    assert comparable(codec.decode(frame)) == comparable(env)
    assert codec.encode(codec.decode(frame)) == frame


def test_a_sharded_batch_refuses_entries_it_cannot_carry():
    entry = ("vessel", 1, None, 0, None)
    for bad, error in (
        (("vessel", 1, None, 256, None), ValueError),
        (("vessel", 1, None, 0, 1 << 64), ValueError),
        (("vessel", 1, ShardedBatch(entries=()), 0, None), TypeError),
        (("vessel", 1, None, 0), TypeError),
        (WireEnvelope(kind="sharded", src="n"), TypeError),
    ):
        env = WireEnvelope(kind="sharded", src="n", message=ShardedBatch(entries=(entry, bad)))
        with pytest.raises(error):
            codec.encode(env)


def test_only_a_sharded_frame_carries_a_batch():
    """A ``"sharded"`` envelope carries a ``ShardedBatch`` and no other
    kind does: the encoder refuses either mix-up, and the decoder refuses
    both as frames a faulty peer might send."""
    batch = ShardedBatch(entries=(("vessel", 1, None, 0, None),))
    for env in (
        WireEnvelope(kind="sharded", src="n", message=Heartbeat("n")),
        WireEnvelope(kind="sharded", src="n"),
        *(WireEnvelope(kind=kind, src="n", message=batch) for kind in ("ask", "reply", "control")),
        WireEnvelope(kind="reply", src="n", message=[batch]),
    ):
        with pytest.raises(TypeError):
            codec.encode(env)
    for frame in mislabelled_frames():
        with pytest.raises(codec.WireDecodeError):
            codec.decode(frame)
