"""The batched resampling ``densify_many`` against the per-forecast oracle.

``densify_many`` replays numpy's ``arange`` fill and ``interp`` loop on arrays
of many forecasts; each of its tracks must be the one-forecast resampling
(``tests/forecasts.py::reference_densify``: ``np.arange`` and ``np.interp``)
bit for bit, latitude mean included, whatever else shares the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.collision import densify, densify_many
from tests.forecasts import make_forecast, reference_densify


def _bits(track) -> tuple:
    return track.data.shape, track.data.tobytes(), float(track.mean_lat).hex(), track.step_s


@st.composite
def _forecast(draw, mmsi: int):
    """2 to 8 marks at uneven gaps from an anchor near zero or near an epoch
    time, drifting or running across the antimeridian."""
    marks = draw(st.integers(2, 8))
    t0 = draw(st.one_of(st.floats(-1e4, 1e4), st.floats(1.6e9, 1.8e9)))
    gaps = draw(st.lists(st.floats(0.5, 900.0), min_size=marks - 1, max_size=marks - 1))
    times = [t0]
    for gap in gaps:
        times.append(times[-1] + gap)
    lat = draw(st.floats(-80.0, 80.0))
    if draw(st.booleans()):
        # East or west across 180 degrees, wrapped into [-180, 180).
        lon, dlon = draw(st.floats(179.5, 180.5)), draw(st.sampled_from([0.15, -0.15]))
    else:
        lon, dlon = draw(st.floats(-179.0, 179.0)), draw(st.floats(-0.2, 0.2))
    dlat = draw(st.floats(-0.2, 0.2))
    fixes = [
        (t, lat + k * dlat, (lon + k * dlon + 180.0) % 360.0 - 180.0) for k, t in enumerate(times)
    ]
    return make_forecast(mmsi, fixes)


@st.composite
def _batches(draw):
    size = draw(st.integers(1, 12))
    return [draw(_forecast(mmsi)) for mmsi in range(size)]


@settings(max_examples=200, deadline=None)
@given(_batches(), st.sampled_from([10.0, 30.0, 45.0]))
def test_each_batched_track_is_the_one_forecast_resampling(forecasts, step):
    tracks = densify_many(forecasts, step)
    assert len(tracks) == len(forecasts)
    for forecast, track in zip(forecasts, tracks):
        assert _bits(track) == _bits(reference_densify(forecast, step))
        assert _bits(track) == _bits(densify(forecast, step))
        assert track.data.flags.c_contiguous and track.data.base is None


def test_a_crossing_batch_member_leaves_its_neighbours_plain():
    """Only the crossing track is unwrapped and wrapped back; the track beside
    it in the batch keeps a plain interpolation's bits."""
    times = [300.0 * k for k in range(7)]
    lons = [(179.95 + 0.02 * k + 180.0) % 360.0 - 180.0 for k in range(7)]
    crossing = make_forecast(1, [(t, 38.0, lon) for t, lon in zip(times, lons)])
    plain = make_forecast(2, [(t, 38.0, 179.0 + 0.02 * k) for k, t in enumerate(times)])
    wrapped, straight = densify_many([crossing, plain])
    assert ((wrapped.data[2] >= -180.0) & (wrapped.data[2] < 180.0)).all()
    t = np.arange(0.0, 1_815.0, 30.0)
    assert straight.data[2].tobytes() == np.interp(t, plain.ts, plain.lons).tobytes()


def test_no_forecasts_densify_to_no_tracks():
    assert densify_many([]) == []


def test_mark_times_must_ascend():
    backwards = make_forecast(1, [(600.0, 38.0, 23.5), (0.0, 38.1, 23.6)])
    with pytest.raises(ValueError):
        densify_many([backwards])
