"""Vessel collision forecasting (Section 5.2).

The algorithm the paper integrates at the actor level:

1. each AIS message produces a 7-position forecast trajectory (present
   position + six S-VRF predictions),
2. every forecast position is assigned to its H3 cell *and the neighbouring
   cells* so near-boundary encounters are not missed,
3. vessels sharing a cell are checked pairwise: first **temporal
   intersection** (two forecast positions within a system-defined time
   interval threshold inside the 30-minute window), then **spatial
   intersection** (those positions within a distance threshold),
4. if both hold, a potential collision is detected and logged with the
   estimated time, location and the MMSIs involved (Figure 4f).

:func:`trajectories_intersect` is the pairwise test: :func:`densify` on both
forecasts, then :func:`intersect_dense`. The platform's collision cells
(:class:`~repro.platform.cell_actor.CollisionCellRouter`) call the two halves
themselves, so a forecast is densified once however many members it meets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import RouteForecast

#: A densified forecast: sample times, latitudes and longitudes.
DenseTrack = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CollisionForecast:
    """A forecast close encounter between two vessels."""

    mmsi_a: int
    mmsi_b: int
    #: Estimated encounter time (midpoint of the two forecast positions).
    t_expected: float
    lat: float
    lon: float
    min_distance_m: float
    #: Stream time at which the forecast was made.
    forecast_at: float

    @property
    def pair(self) -> tuple[int, int]:
        return tuple(sorted((self.mmsi_a, self.mmsi_b)))

    @property
    def lead_time_s(self) -> float:
        """Warning lead time: how far ahead the encounter is forecast."""
        return self.t_expected - self.forecast_at


def densify(fc: RouteForecast, step_s: float = 30.0) -> DenseTrack:
    """Resample a forecast polyline at ``step_s`` (linear interpolation).

    The forecast marks are 5 minutes apart; a 12-knot vessel covers ~1.8 km
    between marks, so pointwise mark comparison would miss most genuine
    path crossings. Densifying both trajectories turns the spatial-
    intersection test into a closest-point-of-approach check along the
    paths, which is what "the spatial intersection of the forecasted
    trajectories is assessed" requires.
    """
    ts, lats, lons = fc.ts, fc.lats, fc.lons
    dense_t = np.arange(ts[0], ts[-1] + step_s / 2.0, step_s)
    return dense_t, np.interp(dense_t, ts, lats), np.interp(dense_t, ts, lons)


def intersect_dense(
    fc_a: RouteForecast,
    dense_a: DenseTrack,
    fc_b: RouteForecast,
    dense_b: DenseTrack,
    temporal_threshold_s: float = 120.0,
    spatial_threshold_m: float = 500.0,
) -> CollisionForecast | None:
    """The two-stage test of :func:`trajectories_intersect` on tracks
    already densified by :func:`densify` (``dense_a`` from ``fc_a``,
    ``dense_b`` from ``fc_b``)."""
    ta, lat_a, lon_a = dense_a
    tb, lat_b, lon_b = dense_b
    forecast_at = max(fc_a.anchor.t, fc_b.anchor.t)

    # Temporal intersection: |ta_i - tb_j| <= threshold, vectorised —
    # restricted to sample pairs whose midpoint (the estimated encounter
    # time) is not in the past.
    dt = np.abs(ta[:, None] - tb[None, :])
    mask = (dt <= temporal_threshold_s) & ((ta[:, None] + tb[None, :]) * 0.5 >= forecast_at)
    if not mask.any():
        return None
    ia, ib = np.nonzero(mask)

    # Spatial intersection on the matched samples (flat-Earth metres).
    mean_lat = np.radians((lat_a.mean() + lat_b.mean()) / 2.0)
    kx = 111_194.9266 * np.cos(mean_lat)
    ky = 111_194.9266
    dx = (lon_a[ia] - lon_b[ib]) * kx
    dy = (lat_a[ia] - lat_b[ib]) * ky
    d = np.hypot(dx, dy)
    k = int(np.argmin(d))
    if d[k] > spatial_threshold_m:
        return None
    i, j = int(ia[k]), int(ib[k])
    return CollisionForecast(
        mmsi_a=fc_a.mmsi,
        mmsi_b=fc_b.mmsi,
        t_expected=float((ta[i] + tb[j]) / 2.0),
        lat=float((lat_a[i] + lat_b[j]) / 2.0),
        lon=float((lon_a[i] + lon_b[j]) / 2.0),
        min_distance_m=float(d[k]),
        forecast_at=forecast_at,
    )


def trajectories_intersect(
    fc_a: RouteForecast,
    fc_b: RouteForecast,
    temporal_threshold_s: float = 120.0,
    spatial_threshold_m: float = 500.0,
    step_s: float = 30.0,
) -> CollisionForecast | None:
    """Check two forecast trajectories for a predicted close encounter.

    Implements the paper's two-stage test (Section 5.2): **temporal
    intersection** first — trajectory samples within the system-defined
    time-interval threshold of each other (the threshold "accounts for
    close proximity vessel passes") — then **spatial intersection** of the
    temporally matched samples. Trajectories are densified to ``step_s``
    so path crossings between the 5-minute marks are not missed. Returns
    the encounter at minimum predicted separation, or ``None``.

    Only encounters at or after the freshest of the two anchors are
    considered (one forecast is usually staler than the other): a crossing
    whose estimated time lies behind the newest known position is not an
    actionable warning, and admitting it would make the reported encounter
    order-sensitive for near-parallel tracks whose minimum separation is
    effectively constant along the horizon. Guarantees
    ``lead_time_s >= 0`` on every returned hit.
    """
    return intersect_dense(
        fc_a,
        densify(fc_a, step_s),
        fc_b,
        densify(fc_b, step_s),
        temporal_threshold_s,
        spatial_threshold_m,
    )
