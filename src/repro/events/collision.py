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
pairs, each side resampled once by :func:`densify_many`; the platform's
collision cells (:class:`~repro.platform.cell_actor.CollisionCellRouter`)
densify the forecasts a flush's walk met in one call and test the flush's
pairs in one more. :func:`densify` and :func:`trajectories_intersect` are the
one-forecast and one-pair calls.
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
#: :func:`_near` drops a row only past this factor of the kernel's limit: a
#: ``cos`` over an array of another length may round its scale differently.
_NEAR_SLACK = 1.0 + 2.0**-20


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
    """Resample a forecast polyline at ``step_s`` (linear interpolation):
    the one-forecast call of :func:`densify_many`.

    The forecast marks are 5 minutes apart; a 12-knot vessel covers ~1.8 km
    between marks, so pointwise mark comparison would miss most genuine
    path crossings. Densifying both trajectories turns the spatial-
    intersection test into a closest-point-of-approach check along the
    paths, which is what "the spatial intersection of the forecasted
    trajectories is assessed" requires.
    """
    return densify_many([fc], step_s)[0]


def densify_many(forecasts: Sequence[RouteForecast], step_s: float = 30.0) -> list[DenseTrack]:
    """Each forecast resampled at ``step_s`` from its first mark, in one
    array pass over all of them.

    Track ``k`` is, bit for bit, ``np.arange(ts[0], ts[-1] + step_s / 2,
    step_s)`` and ``np.interp`` of the marks at those times: the same
    operations in the same order (numpy's ``arange`` fill and ``interp``
    loop, replayed on ``(forecasts, samples)`` arrays). The mark times must
    ascend, as a forecast's do. A segment that crosses the antimeridian
    (its longitudes jump by more than 180 degrees) is interpolated the
    short way, and its samples are wrapped back into [-180, 180); every
    other track keeps the bits of a plain interpolation.
    """
    tracks: list = [None] * len(forecasts)
    groups: dict[int, list[int]] = {}
    for k, fc in enumerate(forecasts):
        groups.setdefault(len(fc.ts), []).append(k)
    for marks, members in groups.items():
        group = [forecasts[k] for k in members]
        block = np.concatenate(
            [fc.ts for fc in group] + [fc.lats for fc in group] + [fc.lons for fc in group]
        )
        dense = _densify_block(block.astype(float, copy=False).reshape(3, len(group), marks), step_s)
        for k, track in zip(members, dense):
            tracks[k] = track
    return tracks


def _densify_block(block: np.ndarray, step_s: float) -> list[DenseTrack]:
    """:func:`densify_many` of forecasts with the same number of marks,
    ``block`` their ``(3, forecasts, marks)`` times, latitudes and
    longitudes."""
    xp = block[0]
    n_fc, marks = xp.shape
    t0 = xp[:, 0]
    # np.arange's length, then its fill: start, start + step, start + i * delta.
    length = np.ceil((xp[:, -1] + step_s / 2.0 - t0) / step_s)
    if not 1.0 <= length.min() <= length.max() < np.inf:
        raise ValueError("densify: a forecast's mark times must be finite and ascend")
    counts = length.astype(np.int64).tolist()
    second = t0 + step_s
    times = t0[:, None] + np.arange(max(counts), dtype=np.float64) * (second - t0)[:, None]
    times[:, 0] = t0
    if times.shape[1] > 1:
        times[:, 1] = second

    # Crossing tracks are unwrapped first, one by one (they are rare).
    lons = block[2]
    crossing = (np.abs(lons[:, 1:] - lons[:, :-1]) > 180.0).any(axis=1).nonzero()[0].tolist()
    for k in crossing:
        lons[k] = np.unwrap(lons[k], period=360.0)

    # np.interp per sample: the last mark j at or before it, then
    # (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j], retried
    # from j + 1 on a NaN; a sample on a mark, or at or past the last, takes
    # that mark's value.
    j = (xp[:, 1:, None] <= times[:, None, :]).sum(axis=1)
    on_mark = j == marks - 1
    j += np.arange(0, n_fc * marks, marks)[:, None]
    j1 = j + 1  # past a row's last mark only where on_mark
    x0, x1 = xp.take(j), xp.take(j1, mode="clip")
    on_mark |= x0 == times
    fp = block[1:].reshape(2, -1)
    y0, y1 = fp.take(j, axis=1), fp.take(j1, axis=1, mode="clip")
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        value = slope * (times - x0) + y0
        retry = np.isnan(value)
        retry &= ~on_mark
        if retry.any():
            again = slope * (times - x1) + y1
            value[retry] = np.where(np.isnan(again) & (y0 == y1), y0, again)[retry]
    out = np.empty((n_fc, 3, times.shape[1]))
    out[:, 0] = times
    out[:, 1:] = np.where(on_mark, y0, value).swapaxes(0, 1)
    for k in crossing:
        dense_lon = out[k, 2]
        outside = (dense_lon < -180.0) | (dense_lon >= 180.0)
        dense_lon[outside] = (dense_lon[outside] + 180.0) % 360.0 - 180.0

    # The latitude mean as ndarray.mean computes it: the pairwise sum over n,
    # which a row reduce runs per row.
    mean_lat = [0.0] * n_fc
    for n in set(counts):
        rows = [k for k, count in enumerate(counts) if count == n]
        for k, total in zip(rows, np.add.reduce(out[rows, 1, :n], axis=1).tolist()):
            mean_lat[k] = total / n
    # A copy per track, so a track kept in a cell does not pin the block.
    return [
        DenseTrack(out[k, :, :n].copy(), mean, step_s)
        for k, (n, mean) in enumerate(zip(counts, mean_lat))
    ]


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
    the sample grid, one row per sample of ``a``. The call's distinct tracks
    are laid out once, between NaN-time pads, so a cell off a track fails the
    temporal test. The rows too far from ``b`` to hold a hit are dropped
    first (:func:`_near`), and a pair left with none is a miss. The rest go
    through in passes of at most ``_PASS_CELLS`` cells; per pass the band
    samples are gathered and the exact test runs on every cell. ``np.hypot``
    (the scalar libm call) runs only on the cells whose squared distance is
    near their pair's least, and only for pairs whose least squared distance
    does not already exceed the spatial threshold; the first least distance
    in the grid's row-major order wins, as in the one-pair test.
    """
    results: list[CollisionForecast | None] = [None] * len(pairs)
    # A negative or NaN threshold matches nothing, as in the exact test.
    if not temporal_threshold_s >= 0.0:
        return results
    # Per banded pair: its index, band, the layout index of each track and b's
    # length; then its later anchor and mean latitude.
    bands, floats, parts, column = [], [], [], {}
    for n, (fc_a, dense_a, fc_b, dense_b) in enumerate(pairs):
        band = _band(dense_a, dense_b, temporal_threshold_s)
        if band is None:
            continue
        data_a, data_b = dense_a.data, dense_b.data
        track_a = column.setdefault(id(data_a), len(parts))
        if track_a == len(parts):
            parts.append(data_a)
        track_b = column.setdefault(id(data_b), len(parts))
        if track_b == len(parts):
            parts.append(data_b)
        bands += (n, *band, track_a, track_b, data_b.shape[1])
        floats += (max(fc_a.anchor.t, fc_b.anchor.t), (dense_a.mean_lat + dense_b.mean_lat) / 2.0)
    if not bands:
        return results
    bands, floats = np.array(bands).reshape(-1, 8), np.array(floats).reshape(-1, 2)
    # Track k's first column: k + 1 pads and the tracks before it.
    pad = max(int(bands[:, 4].max()) - 1, 1)
    gap = np.full((3, pad), np.nan)
    lengths = np.array([data.shape[1] for data in parts])
    starts = pad * np.arange(1, len(parts) + 1) + np.cumsum(lengths) - lengths
    source = np.concatenate([gap, *(x for data in parts for x in (data, gap))], axis=1)
    bands[:, 5:7] = starts.take(bands[:, 5:7])
    index, row0, rows, low, diagonals, col_a, col_b, _ = bands.T
    # A longitude difference can pass 180 degrees only if some longitude
    # lies beyond +-90.
    wrap = bool(np.fmax.reduce(np.abs(source[2])) > 90.0)

    # Every band row as its a sample's column, the rows of a pair in order.
    pair_of_row = np.repeat(np.arange(len(bands)), rows)
    ia = (col_a + row0 - (np.cumsum(rows) - rows)).take(pair_of_row) + np.arange(len(pair_of_row))
    near = _near(ia, pair_of_row, bands, floats[:, 1], source, wrap, spatial_threshold_m)
    ia = ia[near]
    counts = np.bincount(pair_of_row[near], minlength=len(bands))
    live = counts.nonzero()[0]
    # A pair's b sample on diagonal w of the row at a's column c is c + shift + w.
    shift = col_b + low - col_a
    passes, width, cells, first = [], 0, 0, 0
    for k, (rows_k, diagonals_k) in enumerate(zip(counts[live].tolist(), diagonals[live].tolist())):
        wider = max(width, diagonals_k)
        if cells and wider * (cells + rows_k) > _PASS_CELLS:
            passes.append((first, k, width))
            first, wider, cells = k, diagonals_k, 0
        width, cells = wider, cells + rows_k
    if cells:
        passes.append((first, len(live), width))
    bounds = [0, *np.cumsum(counts[live]).tolist()]
    for first, stop, width in passes:
        in_pass = live[first:stop]
        _intersect_pass(
            pairs,
            index[in_pass],
            counts[in_pass],
            ia[bounds[first] : bounds[stop]],
            shift[in_pass],
            floats[in_pass],
            width,
            source,
            wrap,
            temporal_threshold_s,
            spatial_threshold_m,
            results,
        )
    return results


def _near(ia, pair_of_row, bands, mean_lat, source, wrap, spatial_threshold_m) -> np.ndarray:
    """Which band rows can hold a hit: an exact pre-test. ``ia`` holds each
    row's column of its ``a`` sample and ``pair_of_row`` its pair, a row of
    ``bands`` (pair index, first row, rows, first diagonal, diagonals, a's and
    b's first column, b's length).

    Every cell that can pass the temporal test lies in its pair's band, so
    the ``b`` samples a row meets lie in the run of ``b`` the band's
    diagonals reach. The gap between the row's ``a`` sample and that run's
    latitude and longitude extents bounds each of the row's distances from
    below: with the kernel's own scale and rounding, a row whose squared gap
    exceeds the kernel's limit holds no distance the kernel measures, and no
    least one. Where the call wraps longitudes (``wrap``) only the latitude
    gap counts; a NaN keeps the row."""
    _, row0, rows, low, diagonals, _, col_b, b_len = bands.T
    first = col_b + np.maximum(row0 + low, 0)
    stop = col_b + np.minimum(row0 + rows + low + diagonals - 1, b_len)
    ends = np.stack([first, stop], axis=1).ravel()
    # Every other reduceat segment is a run of b: (latitude | longitude, pair).
    lo = np.minimum.reduceat(source[1:], ends, axis=1)[:, ::2].take(pair_of_row, axis=1)
    hi = np.maximum.reduceat(source[1:], ends, axis=1)[:, ::2].take(pair_of_row, axis=1)
    a = source[1:].take(ia, axis=1)
    gaps = np.maximum(np.maximum(lo - a, a - hi, out=lo), 0.0, out=lo)
    gaps[0] *= _M_PER_DEG
    if wrap:
        gaps[1] *= 0.0  # a NaN stays NaN
    else:
        gaps[1] *= (_M_PER_DEG * np.cos(np.radians(mean_lat))).take(pair_of_row)
    gaps *= gaps
    limit = spatial_threshold_m * spatial_threshold_m * _SQUARED_SLACK + _SQUARED_FLOOR
    return ~(gaps[1] + gaps[0] > limit * _NEAR_SLACK)


def _intersect_pass(
    pairs,
    index,
    counts,
    ia,
    shift,
    floats,
    width,
    source,
    wrap,
    temporal_threshold_s,
    spatial_threshold_m,
    results,
):
    """One array pass of :func:`intersect_pairs` over the pairs ``index``,
    each with ``counts`` rows, the rows' ``a`` samples at columns ``ia`` of
    the call's laid-out tracks ``source``; a pair's ``b`` sample on the
    ``w``-th diagonal of a row lies ``shift + w`` columns further, and
    ``floats`` holds its later anchor and mean latitude. Writes each pair's
    hit into ``results``. Cell ``(w, r)`` of the ``(width, rows)`` arrays is
    row ``r`` on its ``w``-th diagonal."""
    row_starts = np.cumsum(counts) - counts
    n_rows = len(ia)
    pair_of_row = np.repeat(np.arange(len(index)), counts)
    ib = (ia + shift[pair_of_row]) + np.arange(width)[:, None]
    ta, lat_a, lon_a = source.take(ia, axis=1)
    tb, lat_b, lon_b = source.take(ib, axis=1)
    forecast_at, mean_lat = floats.T

    # Temporal intersection on the band, the per-pair test's expressions.
    work = ta - tb
    mask = np.abs(work, out=work) <= temporal_threshold_s
    work = np.add(ta, tb, out=work)
    work *= 0.5
    mask &= work >= forecast_at[pair_of_row]

    # Spatial intersection (flat-Earth metres). A longitude difference past
    # 180 degrees is taken the short way round.
    dx = np.subtract(lon_a, lon_b, out=lon_b)
    if wrap:
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
    hit_pairs = cell_pair[first]
    for n, at, d, a_sample, b_sample in zip(
        index[hit_pairs].tolist(),
        forecast_at[hit_pairs].tolist(),
        distance[first].tolist(),
        a_samples,
        b_samples,
    ):
        if d > spatial_threshold_m:
            continue
        fc_a, _, fc_b, _ = pairs[n]
        results[n] = _encounter(fc_a, fc_b, a_sample, b_sample, d, at)


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
