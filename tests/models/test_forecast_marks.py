"""Forecasts as arrays: ``forecast_batch`` computes a batch's marks at once.

A :class:`RouteForecast` is its mark arrays ``ts``, ``lats`` and ``lons``
(index 0 the anchor). These tests pin that nothing observable moved:

* the marks are bitwise the old sequential per-row float loop;
* the anchor is the fix passed in, SOG and COG included;
* each forecast owns its track, and a forecast is frozen, compares by
  identity and pickles with its track bitwise;
* a seeded run's ``KeyValueStore.dump`` is that of forecasts rebuilt from
  their positions as Python floats, with the stored row's old scalar
  types.
"""

import pickle

import numpy as np
import pytest

from repro.ais.datasets import proximity_scenario
from repro.geo.constants import KNOTS_TO_MPS
from repro.geo.geodesy import destination_point
from repro.geo.track import Position
from repro.ml import StandardScaler
from repro.models import LinearKinematicModel
from repro.models.base import forecast_mark_times
from repro.models.svrf import SVRFConfig, SVRFModel
from repro.platform import Platform
from tests.forecasts import comparable, make_forecast


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
        fixes = [(anchor.t, anchor.lat, anchor.lon)]
        lat, lon = anchor.lat, anchor.lon
        for k, t in enumerate(forecast_mark_times(anchor.t)):
            lat = lat + transitions[i, k, 0]
            lon = lon + transitions[i, k, 1]
            fixes.append((t, lat, lon))
        out.append(make_forecast(mmsi, fixes, anchor.sog, anchor.cog))
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
        fixes = [(anchor.t, anchor.lat, anchor.lon)]
        for k, t in enumerate(forecast_mark_times(anchor.t)):
            fixes.append((t, marks[k][0][i], marks[k][1][i]))
        out.append(make_forecast(mmsi, fixes, anchor.sog, anchor.cog))
    return out


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_svrf_marks_are_the_sequential_loop_with_its_types(n):
    model = tiny_svrf()
    mmsis, windows, anchors = batch(n, seed=n)
    got = model.forecast_batch(mmsis, windows, anchors)
    want = sequential_svrf(model, mmsis, windows, anchors)
    assert comparable(got) == comparable(want)


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_kinematic_marks_are_the_sequential_loop_with_its_types(n):
    mmsis, _, anchors = batch(n, seed=n)
    got = LinearKinematicModel().forecast_batch(mmsis, None, anchors)
    want = sequential_kinematic(mmsis, anchors)
    assert comparable(got) == comparable(want)


def test_the_anchor_keeps_its_sog_and_cog():
    """The anchor is the fix passed in, SOG and COG included, and index 0
    of the track."""
    mmsis, windows, anchors = batch(4)
    svrf = tiny_svrf().forecast_batch(mmsis, windows, anchors)
    kinematic = LinearKinematicModel().forecast_batch(mmsis, None, anchors)
    for anchor, a, b in zip(anchors, svrf, kinematic):
        for fc in (a, b):
            assert fc.anchor is anchor
            assert (fc.anchor.sog, fc.anchor.cog) == (anchor.sog, anchor.cog)
            assert (fc.ts[0], fc.lats[0], fc.lons[0]) == (anchor.t, anchor.lat, anchor.lon)
            assert fc.horizon_s() == 1_800.0


def test_each_forecast_owns_its_track():
    mmsis, windows, anchors = batch(3)
    made = tiny_svrf().forecast_batch(mmsis, windows, anchors)
    arrays = [array for fc in made for array in (fc.ts, fc.lats, fc.lons)]
    for array in arrays:
        assert array.dtype == np.float64 and array.shape == (7,)
    for i, array in enumerate(arrays):
        assert not any(np.shares_memory(array, other) for other in arrays[i // 3 * 3 + 3 :])
        # One (3, 7) copy per forecast: a kept forecast does not pin its batch.
        assert array.base.nbytes == 3 * array.nbytes


def test_a_forecast_is_frozen_compares_by_identity_and_pickles_its_track():
    mmsis, windows, anchors = batch(3)
    made = tiny_svrf().forecast_batch(mmsis, windows, anchors)
    for fc in made:
        copy = pickle.loads(pickle.dumps(fc))
        assert copy != fc and len({fc, copy}) == 2
        assert comparable(copy) == comparable(fc)
    with pytest.raises(AttributeError):
        made[0].mmsi = 5


class PositionsBuilt:
    """A forecaster whose every forecast is rebuilt from its ``(t, lat,
    lon)`` positions as Python floats, through the same model."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.min_history = inner.min_history
        self.window_size = inner.window_size

    def make_windows(self, tracks):
        return self.inner.make_windows(tracks)

    def forecast_batch(self, mmsis, windows, anchors):
        out = []
        for fc in self.inner.forecast_batch(mmsis, windows, anchors):
            fixes = list(zip(fc.ts.tolist(), fc.lats.tolist(), fc.lons.tolist()))
            out.append(make_forecast(fc.mmsi, fixes, fc.anchor.sog, fc.anchor.cog))
        return out


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
            dumps.append(repr(platform.kvstore.snapshot_state()))
            row = platform.kvstore.hgetall(f"vessel:{aegean[-1].mmsi}")["forecast"]
            served = platform.api.vessel_forecast(aegean[-1].mmsi)
        finally:
            platform.shutdown()
    assert "collision" in dumps[0] and dumps[0] == dumps[1]
    # The stored row and the served forecast hold plain floats only: no numpy
    # scalar reaches a journal entry, a snapshot or a push.
    assert [tuple(map(type, mark)) for mark in row] == 7 * [(float, float, float)]
    assert [tuple(map(type, mark)) for mark in served] == 7 * [(float, float, float)]
