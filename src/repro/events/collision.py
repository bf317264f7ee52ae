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

:func:`intersect_pairs` is the pairwise test as one array pass over many
pairs, each side resampled once by :func:`densify`; the platform's collision
cells (:class:`~repro.platform.cell_actor.CollisionCellRouter`) collect the
pairs of a whole forecast flush and make one call. :func:`trajectories_intersect`
is the one-pair call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.models.base import RouteForecast

#: Metres per degree of latitude (the flat-Earth scale of the spatial test).
_M_PER_DEG = 111_194.9266
#: Sample-grid cells per array pass of :func:`intersect_pairs`: a band array
#: is then 64 KiB, under the allocator's 128 KiB mmap threshold, above which
#: each fresh array faults its pages in again. Larger passes measured the
#: same, smaller ones slower (DESIGN.md §3c).
_PASS_CELLS = 8_192
#: A squared distance within this factor of a pair's least, plus a floor for
#: squares that underflow, is a candidate for its least ``hypot`` (both are
#: within a few ulps of the true value).
_SQUARED_SLACK = 1.0 + 2.0**-40
_SQUARED_FLOOR = 2.0**-1000


class DenseTrack(NamedTuple):
    """A forecast resampled by :func:`densify`, in the layout
    :func:`intersect_pairs` reads."""

    #: ``(3, n)``: the sample times, latitudes and longitudes.
    data: np.ndarray
    #: The mean of the latitude row, computed once.
    mean_lat: float
    #: The sample spacing, seconds.
    step_s: float


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

    A segment that crosses the antimeridian (its longitudes jump by more
    than 180 degrees) is interpolated the short way, and its samples are
    wrapped back into [-180, 180); every other track keeps the bits of a
    plain interpolation.
    """
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
    # The latitude mean as ndarray.mean computes it: the pairwise sum over n.
    return DenseTrack(data, float(np.add.reduce(data[1])) / data.shape[1], step_s)


def _band(a: DenseTrack, b: DenseTrack, threshold_s: float) -> tuple[int, int, int, int] | None:
    """The part of the ``(i, j)`` sample grid of ``a`` against ``b`` that can
    hold a temporal match, as ``(first row, rows, first diagonal, diagonals)``
    (the diagonal of cell ``(i, j)`` is ``j - i``), or ``None`` if it is empty.

    Both tracks step by ``step_s`` from their first sample, so ``|ta_i - tb_j|
    <= threshold_s`` only near ``j - i = (t0a - t0b) / step_s``. The band is
    widened by a bound on the samples' rounding, so it holds every cell the
    exact test can pass; tracks of different steps get the whole grid.
    """
    na, nb = a.data.shape[1], b.data.shape[1]
    low, high = 1 - na, nb - 1
    if a.step_s == b.step_s:
        step = a.step_s
        t0a, t0b = a.data.item(0), b.data.item(0)
        offset = (t0a - t0b) / step
        slack = 1e-15 * (na + nb + 2) * (abs(t0a) + abs(t0b) + (na + nb) * step + threshold_s)
        first = offset - threshold_s / step - slack / step
        last = offset + threshold_s / step + slack / step
        if first > low:
            low = math.ceil(first)
        if last < high:
            high = math.floor(last)
    row0, row1 = max(0, -high), min(na, nb - low)
    if low > high or row0 >= row1:
        return None
    return row0, row1 - row0, low, high - low + 1


def intersect_pairs(
    pairs: Sequence[tuple[RouteForecast, DenseTrack, RouteForecast, DenseTrack]],
    temporal_threshold_s: float = 120.0,
    spatial_threshold_m: float = 500.0,
) -> list[CollisionForecast | None]:
    """The two-stage test of :func:`trajectories_intersect` on many pairs
    ``(fc_a, dense_a, fc_b, dense_b)`` at once, each track densified by
    :func:`densify` from its forecast. Returns one result per pair, each the
    one-pair test's to the bit.

    A pair's cells are its temporal band (:func:`_band`), a few diagonals of
    the sample grid. The pairs go through in passes of at most
    ``_PASS_CELLS`` cells. Per pass the band samples are gathered from the
    pass's tracks, padded with NaN times so a cell off a track fails the
    temporal test, and the exact test runs on every cell. ``np.hypot`` (the
    scalar libm call) runs only on the cells whose squared distance is near
    their pair's least, and only for pairs whose least squared distance does
    not already exceed the spatial threshold; the first least distance in the
    grid's row-major order wins, as in the one-pair test.
    """
    results: list[CollisionForecast | None] = [None] * len(pairs)
    # A negative or NaN threshold matches nothing, as in the exact test.
    if not temporal_threshold_s >= 0.0:
        return results
    batch: list[tuple[int, int, int, int]] = []
    width = cells = 0
    for n, (_, dense_a, _, dense_b) in enumerate(pairs):
        band = _band(dense_a, dense_b, temporal_threshold_s)
        if band is None:
            continue
        row0, rows, low, diagonals = band
        wider = max(width, diagonals)
        if batch and wider * (cells + rows) > _PASS_CELLS:
            _intersect_pass(pairs, batch, width, temporal_threshold_s, spatial_threshold_m, results)
            batch, wider, cells = [], diagonals, 0
        batch.append((n, row0, rows, low))
        width, cells = wider, cells + rows
    if batch:
        _intersect_pass(pairs, batch, width, temporal_threshold_s, spatial_threshold_m, results)
    return results


def _intersect_pass(pairs, batch, width, temporal_threshold_s, spatial_threshold_m, results):
    """One array pass of :func:`intersect_pairs` over ``batch``, ``(pair
    index, first row, rows, first diagonal)`` tuples; writes each pair's hit
    into ``results``. Cell ``(w, r)`` of the ``(width, rows)`` arrays is band
    row ``r`` (a sample of ``a``) on its ``w``-th diagonal."""
    pad = width - 1
    parts = [np.full((3, pad), np.nan)]
    column: dict[int, int] = {}
    end = pad
    a_shift, b_shift, row_starts, counts, forecast_at, mean_lat = [], [], [], [], [], []
    n_rows = 0
    for n, row0, rows, low in batch:
        fc_a, dense_a, fc_b, dense_b = pairs[n]
        for dense in (dense_a, dense_b):
            if id(dense.data) not in column:
                column[id(dense.data)] = end
                parts += (dense.data, parts[0])
                end += dense.data.shape[1] + pad
        a_shift.append(column[id(dense_a.data)] + row0 - n_rows)
        b_shift.append(column[id(dense_b.data)] + row0 + low - n_rows)
        row_starts.append(n_rows)
        counts.append(rows)
        n_rows += rows
        forecast_at.append(max(fc_a.anchor.t, fc_b.anchor.t))
        mean_lat.append((dense_a.mean_lat + dense_b.mean_lat) / 2.0)
    source = np.concatenate(parts, axis=1)
    pair_of_row = np.repeat(np.arange(len(batch)), counts)
    row = np.arange(n_rows)
    ia = np.array(a_shift)[pair_of_row] + row
    ib = (np.array(b_shift)[pair_of_row] + row) + np.arange(width)[:, None]
    ta, lat_a, lon_a = source.take(ia, axis=1)
    tb, lat_b, lon_b = source.take(ib, axis=1)

    # Temporal intersection on the band, the per-pair test's expressions.
    work = ta - tb
    mask = np.abs(work, out=work) <= temporal_threshold_s
    work = np.add(ta, tb, out=work)
    work *= 0.5
    mask &= work >= np.array(forecast_at)[pair_of_row]

    # Spatial intersection (flat-Earth metres). A longitude difference
    # can pass 180 degrees only if some longitude lies beyond +-90; such a
    # difference is taken the short way round.
    dx = np.subtract(lon_a, lon_b, out=lon_b)
    if np.fmax.reduce(np.abs(source[2])) > 90.0:
        across = np.abs(dx) > 180.0
        dx[across] = (dx[across] + 180.0) % 360.0 - 180.0
    dx *= (_M_PER_DEG * np.cos(np.radians(mean_lat)))[pair_of_row]
    dy = np.subtract(lat_a, lat_b, out=lat_b)
    dy *= _M_PER_DEG
    squared = np.multiply(dx, dx, out=work)
    squared += np.multiply(dy, dy, out=tb)
    squared = np.where(mask, squared, np.inf)
    least = np.minimum.reduceat(squared.min(axis=0), row_starts)

    # A pair whose least squared distance is finite needs hypot only near
    # it, and not at all past the threshold; any other (no cell passed the
    # temporal test, or a non-finite distance) takes its whole mask.
    bound = least * _SQUARED_SLACK + _SQUARED_FLOOR
    limit = spatial_threshold_m * spatial_threshold_m * _SQUARED_SLACK + _SQUARED_FLOOR
    finite = np.isfinite(least)
    bound[~finite | (least > limit)] = -1.0
    candidates = [(squared <= bound[pair_of_row]).ravel().nonzero()[0]]
    for q in (~finite).nonzero()[0].tolist():
        start = row_starts[q]
        w, r = np.nonzero(mask[:, start : start + counts[q]])
        candidates.append(w * n_rows + start + r)
    cells = np.concatenate(candidates)
    if not cells.size:
        return
    distance = np.hypot(dx.ravel()[cells], dy.ravel()[cells])
    w, r = np.divmod(cells, n_rows)
    cell_pair = pair_of_row[r]
    # Per pair the first least distance in row-major order, a NaN first (as
    # np.argmin picks it): sort by pair, then distance, then row and column.
    key = np.where(np.isnan(distance), -np.inf, distance)
    order = np.lexsort((w, r, key, cell_pair))
    ranked = cell_pair[order]
    leads = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=leads[1:])
    first = order[leads]
    a_samples = source[:, ia[r[first]]].T.tolist()
    b_samples = source[:, ib.ravel()[cells[first]]].T.tolist()
    for q, d, a_sample, b_sample in zip(
        cell_pair[first].tolist(), distance[first].tolist(), a_samples, b_samples
    ):
        if d > spatial_threshold_m:
            continue
        n = batch[q][0]
        fc_a, _, fc_b, _ = pairs[n]
        results[n] = _encounter(fc_a, fc_b, a_sample, b_sample, d, forecast_at[q])


def _encounter(fc_a, fc_b, a_sample, b_sample, distance_m, forecast_at) -> CollisionForecast:
    """The hit between sample ``(t, lat, lon)`` of ``fc_a`` and of ``fc_b``:
    the midpoint, taken the short way across the antimeridian."""
    (ta, lat_a, lon_a), (tb, lat_b, lon_b) = a_sample, b_sample
    lon = (lon_a + lon_b) / 2.0
    if abs(lon_a - lon_b) > 180.0:
        lon = (lon + 360.0) % 360.0 - 180.0
    return CollisionForecast(
        mmsi_a=fc_a.mmsi,
        mmsi_b=fc_b.mmsi,
        t_expected=(ta + tb) / 2.0,
        lat=(lat_a + lat_b) / 2.0,
        lon=lon,
        min_distance_m=distance_m,
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
    the encounter at minimum predicted separation (the first such sample
    pair in ``(a sample, b sample)`` order), or ``None``.

    Only encounters at or after the freshest of the two anchors are
    considered (one forecast is usually staler than the other): a crossing
    whose estimated time lies behind the newest known position is not an
    actionable warning, and admitting it would make the reported encounter
    order-sensitive for near-parallel tracks whose minimum separation is
    effectively constant along the horizon. Guarantees
    ``lead_time_s >= 0`` on every returned hit.

    The one-pair call of :func:`intersect_pairs`.
    """
    pair = (fc_a, densify(fc_a, step_s), fc_b, densify(fc_b, step_s))
    return intersect_pairs([pair], temporal_threshold_s, spatial_threshold_m)[0]
