"""Forecasts as arrays: ``forecast_batch`` computes a batch's marks at once.

A :class:`RouteForecast` made from a batch row is a view over its mark
arrays; its ``positions`` are built only when a cold consumer reads them.
These tests pin that nothing observable moved:

* the marks are bitwise the old sequential per-row float loop, with its
  scalar types (``np.float64`` latitudes and longitudes, ``float`` times);
* the anchor is the fix passed in, SOG and COG included;
* equality, hashing, ``repr`` and pickling are those of the plain
  ``(mmsi, positions)`` dataclass;
* the wire bytes and a seeded run's ``KeyValueStore.dump`` are those of
  forecasts built from ``positions`` tuples.
"""

import pickle

import numpy as np
import pytest

from repro.ais.datasets import proximity_scenario
from repro.cluster import codec
from repro.cluster.protocol import WireEnvelope
from repro.geo.constants import KNOTS_TO_MPS
from repro.geo.geodesy import destination_point
from repro.geo.track import Position
from repro.ml import StandardScaler
from repro.models import LinearKinematicModel
from repro.models.base import RouteForecast, forecast_mark_times
from repro.models.svrf import SVRFConfig, SVRFModel
from repro.platform import Platform
from repro.platform.messages import ForecastSharedBatch


def tiny_svrf() -> SVRFModel:
    """An S-VRF model 'trained' by construction (identity input scaler,
    small output scale), so its forecasts are plausible tracks."""
    model = SVRFModel(SVRFConfig(hidden=6, dense=8, seed=3, input_steps=6))
    model.x_scaler = StandardScaler.from_state({"mean": np.zeros(3), "std": np.ones(3)})
    out = model.config.output_steps * 2
    model.y_scaler = StandardScaler.from_state({"mean": np.zeros(out), "std": np.full(out, 1e-3)})
    model.trained = True
    return model


def batch(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    anchors = [
        Position(
            t=float(rng.uniform(0.0, 1e6)),
            lat=float(rng.uniform(-60.0, 60.0)),
            lon=float(rng.uniform(-179.0, 179.0)),
            sog=float(rng.uniform(0.0, 20.0)),
            cog=float(rng.uniform(0.0, 360.0)),
        )
        for _ in range(n)
    ]
    windows = np.stack(
        [
            np.column_stack(
                [rng.normal(0.0, 1e-3, 6), rng.normal(0.0, 1e-3, 6), rng.uniform(30.0, 90.0, 6)]
            )
            for _ in range(n)
        ]
    )
    return list(range(100, 100 + n)), windows, anchors


def sequential_svrf(model, mmsis, windows, anchors) -> list:
    """The per-row float loop ``SVRFModel.forecast_batch`` ran before."""
    transitions = model.predict_transitions(windows)
    out = []
    for i, (mmsi, anchor) in enumerate(zip(mmsis, anchors)):
        positions = [anchor]
        lat, lon = anchor.lat, anchor.lon
        for k, t in enumerate(forecast_mark_times(anchor.t)):
            lat = lat + transitions[i, k, 0]
            lon = lon + transitions[i, k, 1]
            positions.append(Position(t=t, lat=lat, lon=lon))
        out.append(RouteForecast(mmsi=mmsi, positions=tuple(positions)))
    return out


def sequential_kinematic(mmsis, anchors) -> list:
    """The per-row object build ``LinearKinematicModel.forecast_batch`` ran
    before, over the same vectorised dead reckoning."""
    lat0 = np.array([a.lat for a in anchors])
    lon0 = np.array([a.lon for a in anchors])
    cog = np.array([a.cog for a in anchors])
    speed = np.array([a.sog for a in anchors]) * KNOTS_TO_MPS
    marks = [destination_point(lat0, lon0, cog, speed * 300.0 * k) for k in range(1, 7)]
    out = []
    for i, (mmsi, anchor) in enumerate(zip(mmsis, anchors)):
        positions = [anchor]
        for k, t in enumerate(forecast_mark_times(anchor.t)):
            lat, lon = marks[k][0][i], marks[k][1][i]
            positions.append(Position(t=t, lat=lat, lon=lon, sog=anchor.sog, cog=anchor.cog))
        out.append(RouteForecast(mmsi=mmsi, positions=tuple(positions)))
    return out


def typed(forecast: RouteForecast) -> list:
    """Every field of every position as ``(type, repr)``: bits and type."""
    return [
        [(type(getattr(p, f)), repr(getattr(p, f))) for f in ("t", "lat", "lon", "sog", "cog")]
        for p in forecast.positions
    ]


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_svrf_marks_are_the_sequential_loop_with_its_types(n):
    model = tiny_svrf()
    mmsis, windows, anchors = batch(n, seed=n)
    got = model.forecast_batch(mmsis, windows, anchors)
    want = sequential_svrf(model, mmsis, windows, anchors)
    assert [typed(fc) for fc in got] == [typed(fc) for fc in want]
    assert type(got[0].positions[1].lat) is np.float64 and type(got[0].positions[1].t) is float


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_kinematic_marks_are_the_sequential_loop_with_its_types(n):
    mmsis, _, anchors = batch(n, seed=n)
    got = LinearKinematicModel().forecast_batch(mmsis, None, anchors)
    want = sequential_kinematic(mmsis, anchors)
    assert [typed(fc) for fc in got] == [typed(fc) for fc in want]


def test_the_arrays_are_the_positions():
    mmsis, windows, anchors = batch(5)
    for fc in tiny_svrf().forecast_batch(mmsis, windows, anchors):
        assert fc.ts.tolist() == [p.t for p in fc.positions]
        assert fc.lats.tolist() == [p.lat for p in fc.positions]
        assert fc.lons.tolist() == [p.lon for p in fc.positions]
        built = RouteForecast(fc.mmsi, fc.positions)
        for name in ("ts", "lats", "lons"):
            assert getattr(built, name).tobytes() == getattr(fc, name).tobytes()


def test_the_anchor_keeps_its_sog_and_cog():
    mmsis, windows, anchors = batch(4)
    svrf = tiny_svrf().forecast_batch(mmsis, windows, anchors)
    kinematic = LinearKinematicModel().forecast_batch(mmsis, None, anchors)
    for anchor, a, b in zip(anchors, svrf, kinematic):
        assert a.anchor is anchor and a.positions[0] is anchor
        assert (a.anchor.sog, a.anchor.cog) == (anchor.sog, anchor.cog)
        assert all(p.sog is None and p.cog is None for p in a.predicted)
        assert b.anchor is anchor
        assert all((p.sog, p.cog) == (anchor.sog, anchor.cog) for p in b.predicted)


def test_equality_hashing_repr_and_pickle_are_the_dataclass():
    mmsis, windows, anchors = batch(3)
    made = tiny_svrf().forecast_batch(mmsis, windows, anchors)
    twins = [RouteForecast(mmsi=fc.mmsi, positions=tuple(fc.positions)) for fc in made]
    for fc, twin in zip(made, twins):
        assert fc == twin and hash(fc) == hash(twin) and repr(fc) == repr(twin)
        assert pickle.dumps(fc) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(fc)) == fc
    assert made[0] != made[1]
    assert RouteForecast(mmsi=1, positions=made[0].positions) != made[0]
    assert len({*made, *twins}) == len(made)
    with pytest.raises(AttributeError):
        made[0].mmsi = 5
    with pytest.raises(AttributeError):
        made[0].no_such_field  # noqa: B018


@pytest.mark.parametrize("kinematic", [False, True])
def test_wire_bytes_match_a_forecast_built_from_positions(kinematic):
    mmsis, windows, anchors = batch(6)
    if kinematic:
        made = LinearKinematicModel().forecast_batch(mmsis, None, anchors)
    else:
        made = tiny_svrf().forecast_batch(mmsis, windows, anchors)
    for fc in made:
        twin = RouteForecast(mmsi=fc.mmsi, positions=tuple(fc.positions))
        frames = [
            codec.encode(
                WireEnvelope(
                    kind="sharded",
                    src="node-01",
                    entity="collision",
                    key=613561124432,
                    message=ForecastSharedBatch(cells=(613561124432, 613561124433), forecast=f),
                )
            )
            for f in (fc, twin)
        ]
        assert frames[0] == frames[1]
        assert codec.decode(frames[0]).message.forecast == fc


class PositionsBuilt:
    """A forecaster whose every forecast is rebuilt from its ``positions``
    tuple: the old object form, through the same model."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.min_history = inner.min_history
        self.window_size = inner.window_size

    def make_window(self, *args, **kwargs):
        return self.inner.make_window(*args, **kwargs)

    def forecast_batch(self, mmsis, windows, anchors):
        return [
            RouteForecast(mmsi=fc.mmsi, positions=tuple(fc.positions))
            for fc in self.inner.forecast_batch(mmsis, windows, anchors)
        ]


@pytest.fixture(scope="module")
def aegean():
    scenario = proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )
    return sorted(scenario.result.messages, key=lambda m: m.t)


@pytest.mark.parametrize("make", [tiny_svrf, LinearKinematicModel])
def test_kv_dump_matches_forecasts_built_from_positions(aegean, make):
    dumps = []
    for forecaster in (make(), PositionsBuilt(make())):
        platform = Platform(forecaster=forecaster)
        try:
            for i in range(0, len(aegean), 500):
                platform.publish_messages(aegean[i : i + 500])
                platform.process_available()
            dumps.append(repr(platform.kvstore.dump(aegean[-1].t)))
            row = platform.kvstore.hgetall(f"vessel:{aegean[-1].mmsi}")["forecast"]
        finally:
            platform.shutdown()
    assert "collision" in dumps[0] and dumps[0] == dumps[1]
    # The stored row keeps the old scalar types: the anchor's floats, then
    # float times and np.float64 positions.
    assert [tuple(map(type, mark)) for mark in row] == [(float, float, float)] + 6 * [
        (float, np.float64, np.float64)
    ]
