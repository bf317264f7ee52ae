"""Forecast fixtures and the one way tests compare forecasts.

A :class:`RouteForecast` is its mark arrays and compares by identity, so a
test builds one with :func:`make_forecast` and compares values that hold
forecasts (a message, an envelope, a decoded state) through
:func:`comparable`, which compares each track bitwise.

:func:`reference_intersect` is the collision pair test one pair at a time,
the oracle of the batched kernel ``intersect_pairs``, and
:func:`reference_densify` the per-forecast resampling, the oracle of the
batched ``densify_many``; :func:`hit_bits` compares two results field by
field in ``float.hex``.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Sequence

import numpy as np

from repro.events.collision import CollisionForecast, DenseTrack
from repro.geo.track import Position
from repro.models.base import RouteForecast


def make_forecast(
    mmsi: int,
    fixes: Sequence[tuple[float, float, float]],
    sog: float | None = None,
    cog: float | None = None,
) -> RouteForecast:
    """A forecast over ``fixes``, ``(t, lat, lon)`` rows, the first the
    anchor, which carries ``sog`` and ``cog``."""
    ts, lats, lons = np.array(fixes, dtype=np.float64).reshape(-1, 3).T.copy()
    t, lat, lon = fixes[0]
    return RouteForecast(mmsi, Position(t=t, lat=lat, lon=lon, sog=sog, cog=cog), ts, lats, lons)


def comparable(value: Any) -> Any:
    """``value`` as plain data that compares by value: a dataclass (a
    forecast included) becomes its type and fields, an ndarray its dtype,
    shape and bytes, so two tracks are equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value), tuple(comparable(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(comparable(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return (type(value), frozenset(comparable(item) for item in value))
    if isinstance(value, dict):
        return (dict, tuple((comparable(k), comparable(v)) for k, v in value.items()))
    return value


def reference_densify(fc: RouteForecast, step_s: float = 30.0) -> DenseTrack:
    """``densify`` as it ran one forecast at a time: ``np.arange`` sample
    times and ``np.interp`` of the marks, a segment across the antimeridian
    unwrapped first and its samples wrapped back into [-180, 180)."""
    ts, lats, lons = fc.ts, fc.lats, fc.lons
    dense_t = np.arange(ts[0], ts[-1] + step_s / 2.0, step_s)
    marks = lons.tolist()
    crossing = any(abs(b - a) > 180.0 for a, b in zip(marks, marks[1:]))
    if crossing:
        lons = np.unwrap(lons, period=360.0)
    dense_lon = np.interp(dense_t, ts, lons)
    if crossing:
        outside = (dense_lon < -180.0) | (dense_lon >= 180.0)
        dense_lon[outside] = (dense_lon[outside] + 180.0) % 360.0 - 180.0
    data = np.array([dense_t, np.interp(dense_t, ts, lats), dense_lon])
    return DenseTrack(data, float(np.add.reduce(data[1])) / data.shape[1], step_s)


def reference_intersect(
    fc_a: RouteForecast,
    dense_a: DenseTrack,
    fc_b: RouteForecast,
    dense_b: DenseTrack,
    temporal_threshold_s: float = 120.0,
    spatial_threshold_m: float = 500.0,
) -> CollisionForecast | None:
    """The per-pair collision test as it ran before the batched kernel: the
    full sample-time matrix, then ``np.hypot`` on every temporally matched
    sample pair and the first minimum in row-major order. Longitude
    differences past 180 degrees are taken the short way round, and so is the
    midpoint of a hit across the antimeridian."""
    ta, lat_a, lon_a = dense_a.data
    tb, lat_b, lon_b = dense_b.data
    forecast_at = max(fc_a.anchor.t, fc_b.anchor.t)
    dt = np.abs(ta[:, None] - tb[None, :])
    mask = (dt <= temporal_threshold_s) & ((ta[:, None] + tb[None, :]) * 0.5 >= forecast_at)
    if not mask.any():
        return None
    ia, ib = np.nonzero(mask)
    mean_lat = np.radians((lat_a.mean() + lat_b.mean()) / 2.0)
    kx = 111_194.9266 * np.cos(mean_lat)
    ky = 111_194.9266
    dlon = lon_a[ia] - lon_b[ib]
    across = np.abs(dlon) > 180.0
    dlon[across] = (dlon[across] + 180.0) % 360.0 - 180.0
    dx = dlon * kx
    dy = (lat_a[ia] - lat_b[ib]) * ky
    d = np.hypot(dx, dy)
    k = int(np.argmin(d))
    if d[k] > spatial_threshold_m:
        return None
    i, j = int(ia[k]), int(ib[k])
    lon = float((lon_a[i] + lon_b[j]) / 2.0)
    if abs(lon_a[i] - lon_b[j]) > 180.0:
        lon = (lon + 360.0) % 360.0 - 180.0
    return CollisionForecast(
        mmsi_a=fc_a.mmsi,
        mmsi_b=fc_b.mmsi,
        t_expected=float((ta[i] + tb[j]) / 2.0),
        lat=float((lat_a[i] + lat_b[j]) / 2.0),
        lon=lon,
        min_distance_m=float(d[k]),
        forecast_at=forecast_at,
    )


def hit_bits(hit: CollisionForecast | None) -> tuple | None:
    """A collision result as its MMSIs and the ``float.hex`` of every float
    field, so two results compare equal only bit for bit."""
    if hit is None:
        return None
    floats = (hit.t_expected, hit.lat, hit.lon, hit.min_distance_m, hit.forecast_at)
    return (hit.mmsi_a, hit.mmsi_b, *(float(value).hex() for value in floats))
