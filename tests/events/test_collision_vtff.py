"""Tests for collision forecasting and traffic flow forecasting."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import (
    DirectVTFF,
    FlowGrid,
    IndirectVTFF,
    TrafficLevel,
    trajectories_intersect,
)
from repro.events import collision
from repro.events.collision import densify, intersect_pairs
from repro.hexgrid import latlng_to_cells
from tests.forecasts import hit_bits, make_forecast, reference_intersect


def _forecast(mmsi, t0, lat0, lon0, dlat_per_step, dlon_per_step, steps=6):
    """A straight forecast trajectory at 5-minute marks."""
    fixes = [(t0, lat0, lon0)]
    for k in range(1, steps + 1):
        fixes.append((t0 + 300.0 * k, lat0 + dlat_per_step * k, lon0 + dlon_per_step * k))
    return make_forecast(mmsi, fixes)


def _converging_pair(miss_deg=0.0):
    """Two trajectories meeting at (38.0, 23.5 + miss) around t=900s."""
    a = _forecast(1, t0=0.0, lat0=38.0, lon0=23.40, dlat_per_step=0.0, dlon_per_step=0.0333)
    b = _forecast(
        2, t0=0.0, lat0=38.1 + miss_deg, lon0=23.50, dlat_per_step=-0.0333, dlon_per_step=0.0
    )
    return a, b


class TestTrajectoriesIntersect:
    def test_converging_trajectories_hit(self):
        a, b = _converging_pair()
        hit = trajectories_intersect(a, b, temporal_threshold_s=120.0, spatial_threshold_m=2_000.0)
        assert hit is not None
        assert hit.pair == (1, 2)
        assert hit.min_distance_m < 2_000.0
        assert 0.0 < hit.t_expected <= 1_800.0

    def test_parallel_trajectories_miss(self):
        a = _forecast(1, 0.0, 38.0, 23.0, 0.01, 0.0)
        b = _forecast(2, 0.0, 38.5, 23.0, 0.01, 0.0)  # 55 km north, same course
        assert trajectories_intersect(a, b) is None

    def test_spatial_but_not_temporal_miss(self):
        """Crossing paths but half an hour apart in time -> no collision."""
        a = _forecast(1, t0=0.0, lat0=38.0, lon0=23.40, dlat_per_step=0.0, dlon_per_step=0.0333)
        b = _forecast(
            2, t0=1_500.0, lat0=38.1, lon0=23.50, dlat_per_step=-0.0333, dlon_per_step=0.0
        )
        hit_strict = trajectories_intersect(
            a, b, temporal_threshold_s=60.0, spatial_threshold_m=2_000.0
        )
        # positions at overlapping wall-clock times are far apart spatially
        assert hit_strict is None

    def test_threshold_sensitivity(self):
        # Same course, laterally offset by ~2.2 km: the true CPA is the
        # offset itself, so it sits between the two thresholds.
        a = _forecast(1, 0.0, 38.00, 23.0, 0.0, 0.0333)
        b = _forecast(2, 0.0, 38.02, 23.0, 0.0, 0.0333)
        tight = trajectories_intersect(a, b, spatial_threshold_m=500.0, temporal_threshold_s=120.0)
        loose = trajectories_intersect(
            a, b, spatial_threshold_m=5_000.0, temporal_threshold_s=120.0
        )
        assert tight is None
        assert loose is not None
        assert loose.min_distance_m == pytest.approx(2_224.0, rel=0.05)

    def test_lead_time(self):
        a, b = _converging_pair()
        hit = trajectories_intersect(a, b, spatial_threshold_m=2_000.0)
        assert hit.lead_time_s == pytest.approx(hit.t_expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(
            st.sampled_from([0.0, 120.0, 900.0]),
            st.floats(37.99, 38.01),
            st.floats(-0.01, 0.01),
            st.floats(-0.01, 0.01),
        ),
        st.sampled_from([60.0, 120.0, 300.0]),
        st.sampled_from([30.0, 60.0]),
    )
    def test_intersect_pairs_is_the_oracle(self, geometry, window, step):
        """Densifying each side once and calling ``intersect_pairs`` is the
        per-pair oracle, field for field in ``float.hex``, and so is
        ``trajectories_intersect``."""
        t0, lat, dlat, dlon = geometry
        a = _forecast(1, 0.0, 38.0, 23.5, 0.003, 0.0)
        b = _forecast(2, t0, lat, 23.51, dlat, dlon)
        pair = (a, densify(a, step), b, densify(b, step))
        expected = hit_bits(reference_intersect(*pair, window, spatial_threshold_m=2_000.0))
        (hit,) = intersect_pairs([pair], window, spatial_threshold_m=2_000.0)
        assert hit_bits(hit) == expected
        whole = trajectories_intersect(
            a, b, temporal_threshold_s=window, spatial_threshold_m=2_000.0, step_s=step
        )
        assert hit_bits(whole) == expected


def _wrapped(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


def _antimeridian_pair(lon0: float):
    """Vessel A runs east from ``lon0`` in 0.02-degree steps per mark; vessel
    B lies still 33 m south of A's line, 0.0495 degrees east of its start."""
    times = [300.0 * k for k in range(7)]
    a = make_forecast(1, [(t, 38.0, _wrapped(lon0 + 0.02 * k)) for k, t in enumerate(times)])
    south = 38.0 - 33.0 / 111_194.9266
    b = make_forecast(2, [(t, south, _wrapped(lon0 + 0.0495)) for t in times])
    return a, b


class TestAntimeridian:
    def test_a_crossing_at_the_antimeridian_is_the_one_at_30_east(self):
        """The pair straddling 180 degrees meets as the same geometry does at
        30 degrees east: its track is interpolated the short way and its
        longitude differences are wrapped (before, the test returned None)."""
        crossing = trajectories_intersect(*_antimeridian_pair(179.95))
        shifted = trajectories_intersect(*_antimeridian_pair(30.0))
        assert shifted.min_distance_m == pytest.approx(54.85, abs=0.01)
        assert crossing is not None
        assert crossing.min_distance_m == pytest.approx(shifted.min_distance_m, rel=1e-6)
        assert crossing.t_expected == shifted.t_expected
        assert crossing.lon == pytest.approx(shifted.lon + 149.95, abs=1e-9)

    def test_the_dense_track_crosses_the_short_way(self):
        a, _ = _antimeridian_pair(179.95)
        lons = densify(a).data[2]
        assert ((lons >= -180.0) & (lons < 180.0)).all()
        assert np.all(np.abs(np.diff(np.unwrap(lons, period=360.0)) - 0.002) < 1e-9)

    def test_a_midpoint_across_the_antimeridian_wraps(self):
        a = _forecast(1, 0.0, 38.0, 179.9999, 0.0, 0.0)
        b = _forecast(2, 0.0, 38.0, -179.9999, 0.0, 0.0)
        hit = trajectories_intersect(a, b)
        assert hit.lon == -180.0
        assert hit.min_distance_m == pytest.approx(17.5, abs=0.1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(-80.0, 80.0),
        st.floats(-179.0, 179.0),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.integers(1, 7),
        st.sampled_from([10.0, 30.0, 60.0]),
    )
    def test_a_track_that_does_not_cross_keeps_plain_interpolation_bits(
        self, lat, lon, dlat, dlon, marks, step
    ):
        fc = _forecast(1, 1_000.0, lat, lon, dlat, dlon, steps=marks - 1)
        dense = densify(fc, step)
        t = np.arange(fc.ts[0], fc.ts[-1] + step / 2.0, step)
        plain = np.array([t, np.interp(t, fc.ts, fc.lats), np.interp(t, fc.ts, fc.lons)])
        assert dense.data.tobytes() == plain.tobytes()
        assert dense.mean_lat == plain[1].mean()


@st.composite
def _pair_calls(draw):
    """One ``intersect_pairs`` call: a few forecasts of mixed lengths, then
    pairs over them, each track shared by the pairs it is in.

    Anchor offsets are often whole steps and the temporal threshold a whole
    number of steps, so ``|dt|`` lands exactly on it; still and mirrored
    tracks tie on distance; anchors far apart leave a pair no temporal
    match; some tracks cross the antimeridian."""
    step = draw(st.sampled_from([10.0, 30.0, 45.0, 60.0]))
    temporal = draw(
        st.one_of(st.integers(0, int(600 // step)).map(lambda k: k * step), st.floats(0.0, 600.0))
    )
    spatial = draw(st.one_of(st.just(1e9), st.floats(0.0, 1e9), st.floats(0.0, 3_000.0)))
    base = draw(st.sampled_from([0.0, 1_000.0, 1.7e9]))
    forecasts = []
    for mmsi in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["moving", "still", "mirror", "antimeridian"]))
        if kind == "mirror" and forecasts:
            other = forecasts[-1]
            fixes = zip(other.ts.tolist(), (76.0 - other.lats).tolist(), other.lons.tolist())
            forecasts.append(make_forecast(mmsi, list(fixes)))
            continue
        offset = draw(
            st.one_of(st.integers(-30, 30).map(lambda k: k * step), st.floats(-900.0, 900.0))
        )
        lat = draw(st.floats(37.99, 38.01))
        dlat, dlon = draw(st.floats(-0.01, 0.01)), draw(st.floats(-0.01, 0.01))
        if kind == "still":
            dlat = dlon = 0.0
        if kind == "antimeridian":
            lon = draw(st.floats(179.97, 180.03))
        else:
            lon = draw(st.floats(23.49, 23.51))
        times = [base + offset + 300.0 * k for k in range(draw(st.integers(1, 7)))]
        fixes = [(t, lat + k * dlat, _wrapped(lon + k * dlon)) for k, t in enumerate(times)]
        forecasts.append(make_forecast(mmsi, fixes))
    dense = [densify(fc, step) for fc in forecasts]
    sides = st.integers(0, len(forecasts) - 1)
    pairs = [
        (forecasts[i], dense[i], forecasts[j], dense[j])
        for i, j in draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=10))
    ]
    return pairs, temporal, spatial


@settings(max_examples=300, deadline=None)
@given(_pair_calls())
def test_the_kernel_is_the_oracle_on_every_pair(call):
    """Every pair's result is the per-pair oracle's, bit for bit, whether
    the pairs share array passes or each gets its own."""
    pairs, temporal, spatial = call
    expected = [hit_bits(reference_intersect(*pair, temporal, spatial)) for pair in pairs]
    assert [hit_bits(hit) for hit in intersect_pairs(pairs, temporal, spatial)] == expected
    with mock.patch.object(collision, "_PASS_CELLS", 1):
        assert [hit_bits(hit) for hit in intersect_pairs(pairs, temporal, spatial)] == expected


class TestFlowGrid:
    def test_distinct_vessel_counting(self):
        grid = FlowGrid()
        grid.add(1, t=0.0, lat=38.0, lon=23.5)
        grid.add(1, t=10.0, lat=38.0, lon=23.5)  # same vessel, same window
        grid.add(2, t=20.0, lat=38.0, lon=23.5)
        cells = grid.window_counts(0)
        assert list(cells.values()) == [2]

    def test_windows_separate(self):
        grid = FlowGrid(window_s=300.0)
        grid.add(1, t=0.0, lat=38.0, lon=23.5)
        grid.add(1, t=400.0, lat=38.0, lon=23.5)
        assert grid.windows() == [0, 1]

    def test_series(self):
        grid = FlowGrid()
        grid.add(1, t=0.0, lat=38.0, lon=23.5)
        grid.add(2, t=310.0, lat=38.0, lon=23.5)
        cell = next(iter(grid.active_cells()))
        np.testing.assert_array_equal(grid.series(cell, [0, 1, 2]), [1.0, 1.0, 0.0])

    def test_classification_levels(self):
        grid = FlowGrid()
        assert grid.classify(1) is TrafficLevel.LOW
        assert grid.classify(4) is TrafficLevel.MEDIUM
        assert grid.classify(9) is TrafficLevel.HIGH


class TestIndirectVTFF:
    def test_forecast_positions_fill_future_windows(self):
        vtff = IndirectVTFF(window_s=300.0)
        vtff.submit(
            _forecast(1, t0=0.0, lat0=38.0, lon0=23.5, dlat_per_step=0.0, dlon_per_step=0.0)
        )
        # All six predictions in the same cell, windows 1..6.
        for w in range(1, 7):
            assert sum(vtff.predicted_flow(w).values()) == 1

    def test_resubmission_replaces_contribution(self):
        vtff = IndirectVTFF()
        vtff.submit(_forecast(1, 0.0, 38.0, 23.5, 0.0, 0.0))
        vtff.submit(_forecast(1, 0.0, 52.0, 4.0, 0.0, 0.0))  # moved far away
        total = sum(sum(vtff.predicted_flow(w).values()) for w in range(1, 7))
        assert total == 6  # one vessel's worth, not two

    def test_multiple_vessels_accumulate(self):
        vtff = IndirectVTFF()
        vtff.submit(_forecast(1, 0.0, 38.0, 23.5, 0.0, 0.0))
        vtff.submit(_forecast(2, 0.0, 38.0, 23.5, 0.0, 0.0))
        assert max(vtff.predicted_flow(1).values()) == 2

    def test_predicted_level(self):
        vtff = IndirectVTFF()
        for mmsi in range(8):
            vtff.submit(_forecast(mmsi, 0.0, 38.0, 23.5, 0.0, 0.0))
        cell = next(iter(vtff.predicted_flow(1)))
        assert vtff.predicted_level(cell, 1) is TrafficLevel.HIGH


class EagerRaster:
    """The raster ``IndirectVTFF`` used to keep eagerly, the reference: a
    submit withdraws the vessel's last contribution from the
    ``(cell, window) -> {mmsi}`` grid and adds the new forecast's marks."""

    def __init__(self) -> None:
        self.grid = FlowGrid()
        self.contrib: dict[int, list[tuple[int, int]]] = {}

    def submit(self, *forecasts) -> None:
        lats = np.concatenate([forecast.lats[1:] for forecast in forecasts] or [np.empty(0)])
        lons = np.concatenate([forecast.lons[1:] for forecast in forecasts] or [np.empty(0)])
        cells = iter(latlng_to_cells(lats, lons, self.grid.resolution).tolist())
        grid = self.grid._vessels
        for forecast in forecasts:
            mmsi = forecast.mmsi
            for key in self.contrib.pop(mmsi, []):
                vessels = grid.get(key)
                if vessels is not None:
                    vessels.discard(mmsi)
                    if not vessels:
                        del grid[key]
            keys = [(next(cells), self.grid.window_of(t)) for t in forecast.ts[1:].tolist()]
            for key in keys:
                grid.setdefault(key, set()).add(mmsi)
            self.contrib[mmsi] = keys


#: Forecasts over a few MMSIs, anchored across a few windows, moving
#: far enough per mark to cross flow cells.
_RASTER_FORECASTS = st.builds(
    _forecast,
    mmsi=st.integers(1, 5),
    t0=st.floats(0.0, 1_500.0),
    lat0=st.floats(37.9, 38.1),
    lon0=st.floats(23.4, 23.6),
    dlat_per_step=st.floats(-0.04, 0.04),
    dlon_per_step=st.floats(-0.04, 0.04),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(_RASTER_FORECASTS, max_size=6), min_size=1, max_size=5))
def test_the_raster_built_on_read_matches_the_eager_raster(batches):
    """After every batch, with MMSIs repeated within and across batches,
    the whole grid and every window's flow (in ascending cell order) and
    heat are the eager raster of each vessel's last forecast."""
    vtff, reference = IndirectVTFF(), EagerRaster()
    for batch in batches:
        vtff.submit(*batch)
        reference.submit(*batch)
        assert vtff.grid._vessels == reference.grid._vessels
        for window in [*reference.grid.windows(), -1]:
            expected = reference.grid.window_counts(window)
            flow = vtff.predicted_flow(window)
            assert list(flow.items()) == sorted(expected.items())
            for cell, count in expected.items():
                assert vtff.predicted_level(cell, window) is FlowGrid.classify(count)


class TestDirectVTFF:
    def test_learns_constant_series(self):
        model = DirectVTFF(order=3)
        model.fit({613: np.full(40, 5.0)})
        np.testing.assert_allclose(model.predict(613, steps=3), 5.0, atol=0.2)

    def test_learns_linear_trend(self):
        model = DirectVTFF(order=4, ridge=1e-6)
        model.fit({7: np.arange(40, dtype=float)})
        pred = model.predict(7, steps=2)
        assert pred[0] == pytest.approx(40.0, abs=1.0)

    def test_short_history_falls_back_to_persistence(self):
        model = DirectVTFF(order=6)
        model.fit({9: np.array([1.0, 2.0, 3.0])})
        np.testing.assert_array_equal(model.predict(9, steps=2), [3.0, 3.0])

    def test_unknown_cell_predicts_zero(self):
        model = DirectVTFF()
        np.testing.assert_array_equal(model.predict(404, steps=2), [0.0, 0.0])

    def test_predictions_non_negative(self):
        model = DirectVTFF(order=3)
        model.fit({1: np.array([5.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])})
        assert (model.predict(1, steps=5) >= 0.0).all()

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            DirectVTFF(order=0)
