"""Property-based tests for the closed wire codec.

Hypothesis drives the envelope and hot-payload space: H3 cell ids above
2**63 (the unsigned tag), empty payloads, unicode routing ids, optional
fields in every combination. The invariants under test:

* ``decode(encode(env)) == env``, and a hot payload keeps its fixed-layout
  payload tag — a silent switch to the generic encoding would pass the
  round trip while losing the compact layout the stream relies on;
* any value tree of the wire vocabulary round-trips exactly as pickle
  would: the same types (``tuple``/``list``/``set``, ``np.float64`` vs
  ``float``, the IntEnum) and the same sharing of records;
* every message dataclass is a wire type, so a new message cannot reach
  the wire unregistered;
* a truncated or corrupted frame raises :class:`WireDecodeError` and
  nothing else;
* a forecast made from mark arrays packs into the bytes of its
  ``positions``, and a forecast of uniform marks decodes back into arrays;
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
from hypothesis import assume, given, settings, strategies as st

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
    MemberDown,
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
from tests.cluster.test_batching import HOT_ENVELOPES, VALUE_ENVELOPES

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

forecasts = st.builds(
    RouteForecast, mmsi=uint64, positions=st.lists(positions, max_size=8).map(tuple)
)

hot_payloads = st.one_of(
    st.none(),  # empty payload
    st.builds(PositionIngested, message=ais_messages),
    st.builds(CellObservation, cell=big_cells, mmsi=uint64, t=finite, lat=finite, lon=finite),
    st.builds(
        ForecastSharedBatch,
        cells=st.lists(uint64, min_size=1, max_size=12).map(tuple),
        forecast=forecasts,
    ),
)

#: The payload tag each hot type keeps: its fixed layout (0x00: no payload).
FIXED_LAYOUT_TAGS = {
    type(None): 0x00,
    PositionIngested: 0x10,
    CellObservation: 0x11,
    ForecastSharedBatch: 0x14,
}

envelopes = st.builds(
    WireEnvelope,
    kind=st.sampled_from(["sharded", "ask", "reply", "control"]),
    src=wire_str,
    message=hot_payloads,
    entity=opt_str,
    key=st.none() | uint64 | int64 | wire_str,
    corr_id=st.none() | st.integers(min_value=0, max_value=(1 << 62)),
    hops=st.integers(min_value=0, max_value=255),
)


def payload_tag(env: WireEnvelope) -> int:
    """The first byte of ``env``'s payload in its frame."""
    return codec.encode(env)[len(codec.encode(replace(env, message=None))) - 1]


@settings(deadline=None, max_examples=200)
@given(env=envelopes)
def test_hot_envelope_roundtrips_without_pickle(env):
    assert codec.decode(codec.encode(env)) == env
    assert payload_tag(env) == FIXED_LAYOUT_TAGS[type(env.message)], env


@settings(deadline=None, max_examples=100)
@given(cell=big_cells, mmsi=uint64, t=finite, lat=finite, lon=finite)
def test_h3_cells_above_signed_range_roundtrip(cell, mmsi, t, lat, lon):
    """Cell ids and keys above 2**63 survive exactly (no float drift, no
    signed overflow)."""
    env = WireEnvelope(
        kind="sharded",
        src="node-00",
        entity="cell",
        key=cell,
        message=CellObservation(cell=cell, mmsi=mmsi, t=t, lat=lat, lon=lon),
    )
    decoded = codec.decode(codec.encode(env))
    assert decoded.key == cell and type(decoded.key) is int
    assert decoded.message.cell == cell
    assert payload_tag(env) == FIXED_LAYOUT_TAGS[CellObservation]


@settings(deadline=None, max_examples=100)
@given(kind=st.sampled_from(["sharded", "ask", "control"]), src=wire_str, entity=opt_str)
def test_empty_payload_roundtrips(kind, src, entity):
    env = WireEnvelope(kind=kind, src=src, entity=entity)
    frame = codec.encode(env)
    decoded = codec.decode(frame)
    assert decoded == env and decoded.message is None
    assert frame[-1] == FIXED_LAYOUT_TAGS[type(None)]


@settings(deadline=None, max_examples=100)
@given(batch=st.lists(envelopes, min_size=0, max_size=10))
def test_batch_container_roundtrips(batch):
    frames = [codec.encode(env) for env in batch]
    packed = codec.encode_batch(frames)
    assert codec.decode_batch(packed) == frames
    assert [codec.decode(f) for f in codec.decode_batch(packed)] == batch


def test_nan_position_still_roundtrips_via_fallback():
    """NaN is representable in the struct layout; this documents that a
    NaN fix round-trips bit-exactly rather than erroring."""
    msg = AISMessage(mmsi=1, t=0.0, lat=math.nan, lon=1.0, sog=0.0, cog=0.0)
    env = WireEnvelope(
        kind="sharded", src="n", entity="vessel", key=1, message=PositionIngested(msg)
    )
    decoded = codec.decode(codec.encode(env))
    assert math.isnan(decoded.message.message.lat)


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


def round_trip(message):
    """``message`` through one envelope frame, and through pickle."""
    env = WireEnvelope(kind="reply", src="node-01", corr_id=3, message=message)
    return (
        codec.decode(codec.encode(env)).message,
        pickle.loads(pickle.dumps(env, protocol=pickle.HIGHEST_PROTOCOL)).message,
    )


any_float = finite | finite.map(np.float64)
scalars = (
    st.none()
    | st.booleans()
    | uint64
    | int64
    | any_float
    | wire_str
    | st.sampled_from(list(NavigationStatus))
)
#: Set members and dict keys: ints and strings only, so ``1 == 1.0 ==
#: True`` never merges two members of different types.
hashables = int64 | wire_str
records = st.one_of(
    positions,
    forecasts,
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
FORECAST = RouteForecast(
    mmsi=7,
    positions=(
        Position(t=0.0, lat=37.9, lon=23.5, sog=10.0, cog=90.0),
        Position(t=300.0, lat=37.91, lon=23.52),
    ),
)
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
    MemberDown("node-01"),
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
                    forecast=RouteForecast(
                        mmsi=8, positions=(Position(t=5.0, lat=37.0, lon=23.0),)
                    ),
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
        codec.encode(WireEnvelope(kind="control", src="n", message=sample))
        for sample in MESSAGE_SAMPLES
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
    """The collision table skips a member forecast it has already met by
    identity. A handoff carrying one forecast in two cells must restore it
    as one object, so a newcomer meeting both cells is tested once."""
    fixes = tuple(Position(t=1_000.0 + 300.0 * i, lat=10.0, lon=20.0) for i in range(7))
    shared = RouteForecast(mmsi=111, positions=fixes)
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
        table.share_forecast(cells, RouteForecast(mmsi=222, positions=fixes))
        assert table.pair_tests == 1
    finally:
        cluster.shutdown()


# -- forecasts as mark arrays ------------------------------------------------------


@st.composite
def mark_forecasts(draw):
    """A forecast made from its mark arrays: 1-8 marks after the anchor,
    with or without motion, the anchor's SOG and COG set or None."""
    anchor = draw(positions)
    marks = np.array(draw(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=8)))
    ts, lats, lons = (
        np.concatenate([[first], marks[:, column]])
        for column, first in enumerate((anchor.t, anchor.lat, anchor.lon))
    )
    motion = draw(st.booleans())
    return RouteForecast.from_marks(draw(uint64), anchor, ts, lats, lons, motion=motion)


def forecast_frame(forecast: RouteForecast, cells: tuple) -> bytes:
    message = ForecastSharedBatch(cells=cells, forecast=forecast)
    return codec.encode(WireEnvelope(kind="sharded", src="n", entity="collision", message=message))


def from_arrays(forecast: RouteForecast) -> bool:
    return "_motion" in vars(forecast)


def bits(value: float) -> bytes:
    return struct.pack(">d", value)


@settings(deadline=None, max_examples=200)
@given(forecast=mark_forecasts(), cells=st.lists(uint64, min_size=1, max_size=4).map(tuple))
def test_mark_arrays_encode_and_decode_as_their_positions(forecast, cells):
    frame = forecast_frame(forecast, cells)
    assert "positions" not in vars(forecast)
    twin = RouteForecast(mmsi=forecast.mmsi, positions=tuple(forecast.positions))
    assert forecast_frame(twin, cells) == frame
    decoded = codec.decode(frame).message.forecast
    assert from_arrays(decoded) and decoded == forecast == twin
    for name in ("ts", "lats", "lons"):
        assert getattr(decoded, name).tobytes() == getattr(twin, name).tobytes()
    for p in decoded.positions:
        assert type(p.t) is float and type(p.lat) is float and type(p.lon) is float
        assert {type(p.sog), type(p.cog)} <= {float, type(None)}
    assert forecast_frame(decoded, cells) == frame


@settings(deadline=None, max_examples=200)
@given(forecast=mark_forecasts(), index=st.integers(min_value=0), sog=finite)
def test_non_uniform_marks_take_the_positions_path(forecast, index, sog):
    """A mark whose SOG is not the anchor's (mixed flags when the anchor
    has none) breaks uniformity: the region decodes into positions and
    still round-trips."""
    anchor = forecast.anchor
    assume(anchor.sog is None or bits(sog) != bits(anchor.sog))
    marks = list(forecast.positions)
    i = 1 + index % (len(marks) - 1)
    marks[i] = replace(marks[i], sog=sog)
    twin = RouteForecast(mmsi=forecast.mmsi, positions=tuple(marks))
    frame = forecast_frame(twin, (613561124432,))
    decoded = codec.decode(frame).message.forecast
    assert not from_arrays(decoded) and decoded == twin
    assert forecast_frame(decoded, (613561124432,)) == frame


# -- forecast blocks ---------------------------------------------------------------

cell_tuples = st.lists(uint64, min_size=1, max_size=4).map(tuple)


def sharded_frame(messages: list) -> tuple[bytes, WireEnvelope]:
    entries = tuple(("collision", i, message, 0, None) for i, message in enumerate(messages))
    env = WireEnvelope(kind="sharded", src="n", message=ShardedBatch(entries=entries))
    return codec.encode(env), env


@settings(deadline=None, max_examples=150)
@given(
    shares=st.lists(st.tuples(mark_forecasts() | forecasts, cell_tuples), min_size=1, max_size=8)
)
def test_a_run_of_shares_is_one_block_and_each_decodes_as_alone(shares):
    """Consecutive shares in a sharded batch travel as one block, and each
    decodes as its lone frame does: the same forecast, from arrays exactly
    when alone it is, arrays bitwise equal, the old scalar types, and a
    track of its own, so a kept forecast does not pin the frame."""
    messages = [ForecastSharedBatch(cells=cells, forecast=forecast) for forecast, cells in shares]
    frame, env = sharded_frame(messages)
    heads, _ = sharded_frame([None] * len(messages))
    payloads = len(heads) - len(messages)
    assert frame[payloads] == 0x14
    assert struct.unpack_from(">I", frame, payloads + 1)[0] == len(shares)
    decoded = codec.decode(frame)
    assert decoded == env and codec.encode(decoded) == frame
    kept = []
    for entry, message in zip(decoded.message.entries, messages):
        got = entry[2].forecast
        alone = codec.decode(forecast_frame(message.forecast, message.cells)).message.forecast
        assert got == message.forecast == alone and from_arrays(got) == from_arrays(alone)
        assert entry[2].cells == message.cells
        if got.positions:
            for name in ("ts", "lats", "lons"):
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()
        for p in got.positions:
            assert type(p.t) is float and type(p.lat) is float and type(p.lon) is float
            assert {type(p.sog), type(p.cog)} <= {float, type(None)}
        if from_arrays(got):
            assert got.ts.base.nbytes == 3 * got.ts.nbytes
            assert not any(np.shares_memory(got.ts, other) for other in kept)
            kept.append(got.ts)


sharded_entries = st.tuples(
    opt_str,
    st.none() | uint64 | int64 | wire_str,
    hot_payloads
    | st.builds(ForecastSharedBatch, cells=cell_tuples, forecast=mark_forecasts())
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
    assert codec.decode(frame) == env
    assert codec.encode(codec.decode(frame)) == frame


def test_a_sharded_batch_refuses_entries_it_cannot_carry():
    entry = ("vessel", 1, None, 0, None)
    for bad, error in (
        (("vessel", 1, None, 256, None), ValueError),
        (("vessel", 1, None, 0, 1 << 64), ValueError),
        (("vessel", 1, ShardedBatch(entries=()), 0, None), ValueError),
        (("vessel", 1, None, 0), TypeError),
        (WireEnvelope(kind="sharded", src="n"), TypeError),
    ):
        env = WireEnvelope(kind="sharded", src="n", message=ShardedBatch(entries=(entry, bad)))
        with pytest.raises(error):
            codec.encode(env)
