"""Property-based round-trip tests for the wire codec's fast path.

Hypothesis drives the envelope and hot-payload space: H3 cell ids above
2**63 (the unsigned tag), empty payloads, unicode routing ids, optional
fields in every combination. The invariant under test is twofold:
``decode(encode(env)) == env``, and the hot types never fall back to
pickle (``pickle_fallbacks`` stays 0) — a silent fallback would pass the
round trip while quietly losing the throughput the fast path exists for.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.ais.message import AISMessage, NavigationStatus
from repro.cluster import codec
from repro.cluster.protocol import Heartbeat, LoadReport, WireEnvelope
from repro.geo.track import Position
from repro.models.base import RouteForecast
from repro.platform.messages import (
    CellObservation,
    ForecastSharedBatch,
    PositionIngested,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: Any uint64 — H3 indexes at high resolutions exceed 2**63, which must
#: take the unsigned tag rather than overflowing the signed one.
uint64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
big_cells = st.integers(min_value=1 << 63, max_value=(1 << 64) - 1)
#: Routing strings: unicode (including astral planes), bounded so the
#: utf-8 encoding stays under the codec's 0xFFFF length marker.
wire_str = st.text(max_size=64)
opt_str = st.none() | wire_str

ais_messages = st.builds(
    AISMessage,
    mmsi=uint64, t=finite, lat=finite, lon=finite, sog=finite, cog=finite,
    heading=st.none() | st.integers(min_value=0, max_value=359),
    status=st.sampled_from(list(NavigationStatus)),
    source=st.sampled_from(["terrestrial", "satellite"]))

positions = st.builds(Position, t=finite, lat=finite, lon=finite,
                      sog=st.none() | finite, cog=st.none() | finite)

forecasts = st.builds(RouteForecast, mmsi=uint64,
                      positions=st.lists(positions, max_size=8).map(tuple))

#: LoadReports ride the heartbeat cadence, so they must stay on the fast
#: path too — gauges/counts are uint64s, shard ids uint32s on the wire.
load_reports = st.builds(
    LoadReport, node_id=wire_str,
    mailbox_depth=uint64,
    consumer_lag=uint64,
    busy_ms=finite,
    entities=uint64,
    shard_messages=st.lists(
        st.tuples(st.integers(min_value=0, max_value=(1 << 32) - 1),
                  uint64),
        max_size=16).map(tuple))

hot_payloads = st.one_of(
    st.none(),                                      # empty payload
    st.builds(PositionIngested, message=ais_messages),
    st.builds(CellObservation, cell=big_cells, mmsi=uint64,
              t=finite, lat=finite, lon=finite),
    st.builds(ForecastSharedBatch,
              cells=st.lists(uint64, min_size=1, max_size=12).map(tuple),
              forecast=forecasts),
    st.builds(Heartbeat, node_id=wire_str),
    load_reports)

envelopes = st.builds(
    WireEnvelope,
    kind=st.sampled_from(["sharded", "ask", "reply", "control"]),
    src=wire_str,
    message=hot_payloads,
    entity=opt_str,
    key=st.none() | uint64
        | st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
        | wire_str,
    corr_id=st.none() | st.integers(min_value=0, max_value=(1 << 62)),
    hops=st.integers(min_value=0, max_value=255))


@settings(deadline=None, max_examples=200)
@given(env=envelopes)
def test_hot_envelope_roundtrips_without_pickle(env):
    codec.reset_counters()
    frame = codec.encode(env)
    assert codec.decode(frame) == env
    assert codec.counters()["pickle_fallbacks"] == 0, (
        f"hot envelope fell back to pickle: {env!r}")


@settings(deadline=None, max_examples=100)
@given(cell=big_cells, mmsi=uint64, t=finite, lat=finite, lon=finite)
def test_h3_cells_above_signed_range_roundtrip(cell, mmsi, t, lat, lon):
    """Cell ids and keys above 2**63 survive exactly (no float drift, no
    signed overflow)."""
    codec.reset_counters()
    env = WireEnvelope(kind="sharded", src="node-00", entity="cell",
                       key=cell,
                       message=CellObservation(cell=cell, mmsi=mmsi,
                                               t=t, lat=lat, lon=lon))
    decoded = codec.decode(codec.encode(env))
    assert decoded.key == cell and type(decoded.key) is int
    assert decoded.message.cell == cell
    assert codec.counters()["pickle_fallbacks"] == 0


@settings(deadline=None, max_examples=100)
@given(kind=st.sampled_from(["sharded", "ask", "control"]),
       src=wire_str, entity=opt_str)
def test_empty_payload_roundtrips(kind, src, entity):
    codec.reset_counters()
    env = WireEnvelope(kind=kind, src=src, entity=entity)
    decoded = codec.decode(codec.encode(env))
    assert decoded == env and decoded.message is None
    assert codec.counters()["pickle_fallbacks"] == 0


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
    msg = AISMessage(mmsi=1, t=0.0, lat=math.nan, lon=1.0,
                     sog=0.0, cog=0.0)
    env = WireEnvelope(kind="sharded", src="n", entity="vessel", key=1,
                       message=PositionIngested(msg))
    decoded = codec.decode(codec.encode(env))
    assert math.isnan(decoded.message.message.lat)
