"""Hypothesis property suite for the warehouse.

Three families of properties:

1. **Segment round-trip** — committing arbitrary journal-ordered row batches (under any batch
   split) and reading partitions back yields exactly the source rows, stably ordered by time
   within each fine cell/day.
2. **Crash atomicity** — a crash between segment tmp-writes and the manifest update never
   yields a partial segment: the reopened warehouse shows the previous committed state, every
   referenced segment loads fully, and re-running compaction converges to the no-crash
   fingerprint.
3. **Pruning exactness** — every query under zone-map pruning equals a brute-force scan of the
   raw rows, for arbitrary bboxes (degenerate, far-away and antimeridian-crossing ones) and
   windows. Rows land in fine cells on both sides of a segment boundary and on both sides of
   the antimeridian, where a wrong zone map would drop them. MMSIs are small, 9-digit and near
   2**62, so the distinct-vessel counts hold for any int64 MMSI.
4. **Segment cache** — queries that warmed the cache still equal the brute-force scan after a
   commit merged new rows into the same segments; cached rows are read-only, and an evicted
   segment reads back equal.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.bbox import BoundingBox
from repro.hexgrid import cell_to_latlng, cell_to_parent, grid_disk, latlng_to_cell, neighbors
from repro.warehouse import (
    Warehouse,
    WarehouseCompactor,
    WarehouseQueries,
    day_of,
)
from repro.warehouse import warehouse as warehouse_module
from repro.warehouse.warehouse import SEGMENT_LEVELS

RESOLUTION = 5
COARSE = RESOLUTION - SEGMENT_LEVELS


def _segment_boundary() -> tuple[float, float]:
    """The midpoint of two neighbouring fine cells near (37.5, 24.5) whose segments differ."""
    frontier = [latlng_to_cell(37.5, 24.5, RESOLUTION)]
    while True:
        cell = frontier.pop(0)
        for other in neighbors(cell):
            if cell_to_parent(other, COARSE) != cell_to_parent(cell, COARSE):
                (lat_a, lon_a), (lat_b, lon_b) = cell_to_latlng(cell), cell_to_latlng(other)
                return (lat_a + lat_b) / 2.0, (lon_a + lon_b) / 2.0
            frontier.append(other)


BOUNDARY = _segment_boundary()

#: (lat range, lon range) of the places rows land: a span of the Aegean covering several
#: segments, a strip straddling one segment boundary, and both sides of the antimeridian.
SITES = (
    ((35.0, 39.0), (22.0, 27.0)),
    ((BOUNDARY[0] - 0.2, BOUNDARY[0] + 0.2), (BOUNDARY[1] - 0.2, BOUNDARY[1] + 0.2)),
    ((-20.0, -15.0), (175.0, 179.99)),
    ((-20.0, -15.0), (-179.99, -175.0)),
)


def _finite(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


#: Small, 9-digit and near-2**62 MMSIs, eight of each so vessels repeat.
MMSIS = st.one_of(
    st.integers(1, 8), st.integers(200_000_000, 200_000_007), st.integers(2**62 - 4, 2**62 + 3)
)

#: (mmsi, t, lat, lon) rows spanning several days and all of ``SITES``.
ROWS = st.lists(
    st.one_of(
        *(
            st.tuples(MMSIS, _finite(0.0, 3.0 * 86_400.0), _finite(*lats), _finite(*lons))
            for lats, lons in SITES
        )
    ),
    min_size=1,
    max_size=60,
)

BBOXES = st.one_of(
    st.tuples(
        _finite(-60.0, 60.0), _finite(0.1, 30.0), _finite(-170.0, 160.0), _finite(0.1, 20.0)
    ).map(
        lambda spec: BoundingBox(
            lat_min=max(-90.0, spec[0]),
            lat_max=min(90.0, spec[0] + spec[1]),
            lon_min=spec[2],
            lon_max=min(180.0, spec[2] + spec[3]),
        )
    ),
    # Antimeridian-crossing boxes (lon_min > lon_max).
    st.tuples(
        _finite(-40.0, -16.0), _finite(0.1, 30.0), _finite(170.0, 179.9), _finite(-179.9, -170.0)
    ).map(
        lambda spec: BoundingBox(
            lat_min=spec[0], lat_max=spec[0] + spec[1], lon_min=spec[2], lon_max=spec[3]
        )
    ),
)

#: Closed time windows ``(t0, t1)``.
WINDOWS = st.tuples(_finite(-1_000.0, 4.0 * 86_400.0), _finite(0.0, 2.0 * 86_400.0)).map(
    lambda w: (w[0], w[0] + w[1])
)

#: Bucketed windows ``(t0, t1, bucket_s)``; ``t1`` stops short of a bucket edge.
BUCKETED = st.tuples(
    st.integers(-1_000, 3 * 86_400),
    st.integers(1, 12),
    st.sampled_from([600.0, 3_600.0, 21_600.0, 86_400.0]),
).map(lambda b: (float(b[0]), b[0] + b[1] * b[2] - 0.5, b[2]))


def fine_cell(lat: float, lon: float) -> int:
    return latlng_to_cell(lat, lon, RESOLUTION)


def journal_entries(rows, start_seq=1):
    """The rows as journaled hmset ops (the compactor's input shape)."""
    return [
        (
            start_seq + i,
            "hmset",
            (f"vessel:{mmsi}", {"t": t, "lat": lat, "lon": lon, "sog": 1.0, "cog": 0.0}, t),
            {},
        )
        for i, (mmsi, t, lat, lon) in enumerate(rows)
    ]


def event_entries(rows, start_seq):
    """Every row also journaled as an event, two kinds alternating."""
    return [
        (
            start_seq + i,
            "rpush",
            (
                f"events:{('proximity', 'collision')[i % 2]}",
                {"mmsi_a": mmsi, "mmsi_b": mmsi + 1, "t": t, "lat": lat, "lon": lon},
            ),
            {"now": t},
        )
        for i, (mmsi, t, lat, lon) in enumerate(rows)
    ]


def journal(rows, start_seq):
    """The rows as position fixes, then again as events, from ``start_seq`` on."""
    return journal_entries(rows, start_seq) + event_entries(rows, start_seq + len(rows))


def compact_rows(directory, rows, batch_rows, events=False):
    warehouse = Warehouse(str(directory), resolution=RESOLUTION)
    compactor = WarehouseCompactor(warehouse, batch_rows=batch_rows)
    entries = journal_entries(rows)
    if events:
        entries += event_entries(rows, start_seq=len(rows) + 1)
    compactor.compact_journal(entries)
    return warehouse


def brute_heat(rows, keep) -> dict[int, int]:
    """Rows per fine cell over the rows ``keep(mmsi, t, lat, lon)`` accepts."""
    heat: dict[int, int] = {}
    for mmsi, t, lat, lon in rows:
        if keep(mmsi, t, lat, lon):
            cell = fine_cell(lat, lon)
            heat[cell] = heat.get(cell, 0) + 1
    return heat


def brute_vessels(rows, keep) -> dict[int, int]:
    """Distinct vessels per fine cell over the rows ``keep(mmsi, t, lat, lon)`` accepts."""
    vessels: dict[int, set[int]] = {}
    for mmsi, t, lat, lon in rows:
        if keep(mmsi, t, lat, lon):
            vessels.setdefault(fine_cell(lat, lon), set()).add(mmsi)
    return {cell: len(members) for cell, members in vessels.items()}


def brute_event_rate(rows, cells, t0, t1, bucket_s, n) -> dict[int, list[int]]:
    """Per-cell event counts in ``n`` buckets over ``[t0, t1)``, the last bucket closed."""
    edges = [t0 + bucket_s * i for i in range(n + 1)]
    expected: dict[int, list[int]] = {}
    for _mmsi, t, lat, lon in rows:
        cell = fine_cell(lat, lon)
        if cell in cells and t0 <= t < t1:
            expected.setdefault(cell, [0] * n)[min(bisect_right(edges, t) - 1, n - 1)] += 1
    return expected


def brute_trend(rows, bbox, t0, t1, bucket_s, n) -> tuple[list[int], list[int]]:
    """Distinct vessels and rows per bucket of ``[t0, t1)`` inside ``bbox``."""
    vessels = [set() for _ in range(n)]
    counts = [0] * n
    for mmsi, t, lat, lon in rows:
        if t0 <= t < t1 and bbox.contains(lat, lon):
            vessels[int((t - t0) // bucket_s)].add(mmsi)
            counts[int((t - t0) // bucket_s)] += 1
    return [len(s) for s in vessels], counts


@given(rows=ROWS, batch_rows=st.integers(min_value=1, max_value=16))
@settings(deadline=None, max_examples=60)
def test_round_trip_equals_source_ordered_by_time(tmp_path_factory, rows, batch_rows):
    """Whatever the batch split, partitions hold exactly the source rows stably sorted by t
    (ties keep journal order) — and the fingerprint is batch-split-independent."""
    tmp = tmp_path_factory.mktemp("rt")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows)
    oracle = compact_rows(tmp / "oracle", rows, batch_rows=10**9)
    assert warehouse.fingerprint() == oracle.fingerprint()

    assert warehouse.total_rows("positions") == len(rows)
    seen = 0
    for cell, day, meta in warehouse.partitions("positions"):
        table = warehouse.read_partition("positions", cell, day)
        assert len(table["t"]) == meta["rows"]
        # Stable time order within the partition.
        assert table["t"].tolist() == sorted(table["t"].tolist())
        # Row multiset equals the source rows of this partition, and equal-t runs keep
        # journal order (stability): rebuild the expected order from the journal and compare
        # column-wise.
        expected = [
            (mmsi, t, lat, lon)
            for mmsi, t, lat, lon in rows
            if (fine_cell(lat, lon), day_of(t)) == (cell, day)
        ]
        expected.sort(key=lambda row: row[1])  # python sort is stable
        assert table["mmsi"].tolist() == [r[0] for r in expected]
        assert table["t"].tolist() == [r[1] for r in expected]
        seen += len(expected)
    assert seen == len(rows)
    # Every fine partition sits in the segment of its parent cell.
    for coarse, _day, zone in warehouse.segments("positions"):
        assert {cell_to_parent(cell, COARSE) for cell in zone["cells"]} == {coarse}


@given(
    rows=ROWS,
    batch_rows=st.integers(min_value=1, max_value=8),
    crash_batch=st.integers(min_value=0, max_value=20),
)
@settings(deadline=None, max_examples=40)
def test_crash_before_manifest_never_partial(tmp_path_factory, rows, batch_rows, crash_batch):
    """Crash between the segment tmp-writes and the manifest update: the reopened warehouse
    is exactly the previous committed state (no partial segment visible), and resuming
    converges to the oracle."""
    tmp = tmp_path_factory.mktemp("crash")
    directory = str(tmp / "wh")
    warehouse = Warehouse(directory, resolution=RESOLUTION)
    compactor = WarehouseCompactor(warehouse, batch_rows=batch_rows)

    crashes = [0]

    class Crash(Exception):
        pass

    def failpoint(stage, _detail):
        if stage == "manifest":
            if crashes[0] == crash_batch:
                crashes[0] += 1
                raise Crash
            crashes[0] += 1

    warehouse.failpoint = failpoint
    try:
        compactor.compact_journal(journal_entries(rows))
        crashed = False
    except Crash:
        crashed = True

    reopened = Warehouse(directory, resolution=RESOLUTION)
    # Every partition the manifest references loads fully — tmp files and newer-generation
    # segments from the doomed commit are invisible.
    for table in ("positions", "events"):
        for cell, day, meta in reopened.partitions(table):
            loaded = reopened.read_partition(table, cell, day)
            assert len(loaded["t"]) == meta["rows"]
    if crashed:
        # The interrupted commit moved nothing: cursor < final seq.
        assert reopened.journal_seq < len(rows)
    # Resume (possibly from scratch) and converge byte-for-byte.
    WarehouseCompactor(reopened, batch_rows=batch_rows).compact_journal(journal_entries(rows))
    reopened.vacuum()
    oracle = compact_rows(tmp / "oracle", rows, batch_rows)
    assert reopened.fingerprint() == oracle.fingerprint()
    assert reopened.total_rows("positions") == len(rows)


@given(rows=ROWS, bbox=BBOXES, window=WINDOWS)
@settings(deadline=None, max_examples=60)
def test_pruned_heatmap_equals_brute_force(tmp_path_factory, rows, bbox, window):
    """Zone-map pruning must never drop a matching row: the pruned heatmap equals a
    brute-force scan of the raw rows, cell by cell."""
    tmp = tmp_path_factory.mktemp("prune")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows=16)
    queries = WarehouseQueries(warehouse)
    t0, t1 = window
    heat = queries.heatmap(bbox=bbox, t0=t0, t1=t1)
    expected = brute_heat(rows, lambda _m, t, lat, lon: t0 <= t <= t1 and bbox.contains(lat, lon))
    assert heat == expected
    assert sum(heat.values()) == sum(expected.values())


@given(rows=ROWS, bbox=BBOXES, window=WINDOWS)
@settings(deadline=None, max_examples=40)
def test_heatmap_by_vessels_equals_brute_force(tmp_path_factory, rows, bbox, window):
    """Distinct vessels per cell inside a bbox and window equal a brute-force scan."""
    tmp = tmp_path_factory.mktemp("vessels")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows=16)
    t0, t1 = window
    heat = WarehouseQueries(warehouse).heatmap(bbox=bbox, t0=t0, t1=t1, by="vessels")
    assert heat == brute_vessels(
        rows, lambda _m, t, lat, lon: t0 <= t <= t1 and bbox.contains(lat, lon)
    )


@given(
    rows=ROWS,
    centre=st.integers(min_value=0),
    k=st.integers(min_value=0, max_value=3),
    window=WINDOWS,
)
@settings(deadline=None, max_examples=40)
def test_kring_heatmap_equals_brute_force(tmp_path_factory, rows, centre, k, window):
    """The cell-set prune (segment fine cells ∩ the disk) never drops a disk cell's row."""
    tmp = tmp_path_factory.mktemp("kring")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows=16)
    _mmsi, _t, lat, lon = rows[centre % len(rows)]
    t0, t1 = window
    heat = WarehouseQueries(warehouse).kring_heatmap(lat, lon, k, t0=t0, t1=t1)
    disk = set(grid_disk(fine_cell(lat, lon), k))
    expected = brute_heat(rows, lambda _m, t, la, lo: t0 <= t <= t1 and fine_cell(la, lo) in disk)
    assert heat == expected


@given(rows=ROWS, bucketed=BUCKETED, stride=st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=40)
def test_cell_event_rate_equals_brute_force(tmp_path_factory, rows, bucketed, stride):
    """Per-cell event histograms equal a brute-force bucketing over ``[t0, t1)``."""
    tmp = tmp_path_factory.mktemp("rate")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows=16, events=True)
    t0, t1, bucket_s = bucketed
    cells = {fine_cell(lat, lon) for _m, _t, lat, lon in rows[::stride]}
    series = WarehouseQueries(warehouse).cell_event_rate(cells, t0, t1, bucket_s)
    n = series["n_buckets"]
    expected = brute_event_rate(rows, cells, t0, t1, bucket_s, n)
    assert series["cells"] == expected
    assert series["total"] == [sum(hist[i] for hist in expected.values()) for i in range(n)]


@given(rows=ROWS, bbox=BBOXES, bucketed=BUCKETED)
@settings(deadline=None, max_examples=40)
def test_congestion_trend_equals_brute_force(tmp_path_factory, rows, bbox, bucketed):
    """Distinct vessels and rows per bucket inside a bbox equal a brute-force scan."""
    tmp = tmp_path_factory.mktemp("congestion")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows=16)
    t0, t1, bucket_s = bucketed
    trend = WarehouseQueries(warehouse).congestion_trend(t0, t1, bucket_s, bbox=bbox)
    vessels, counts = brute_trend(rows, bbox, t0, t1, bucket_s, trend["n_buckets"])
    assert trend["vessels"] == vessels
    assert trend["rows"] == counts


@given(rows=ROWS, mmsi=st.one_of(MMSIS, st.just(9)), window=WINDOWS)
@settings(deadline=None, max_examples=40)
def test_vessel_history_equals_brute_force(tmp_path_factory, rows, mmsi, window):
    """A vessel's history is all of its fixes in the window, ordered by time (the mmsi zone
    map prune never drops one)."""
    tmp = tmp_path_factory.mktemp("history")
    warehouse = compact_rows(tmp / "wh", rows, batch_rows=16)
    t0, t1 = window
    history = WarehouseQueries(warehouse).vessel_history(mmsi, t0=t0, t1=t1)
    expected = [(t, lat, lon) for m, t, lat, lon in rows if m == mmsi and t0 <= t <= t1]
    assert history["t"] == sorted(t for t, _lat, _lon in expected)
    # Equal-t fixes in different cells have no journal order left to keep: compare as sets.
    assert sorted(zip(history["t"], history["lat"], history["lon"])) == sorted(expected)


def assert_queries_equal_brute_force(queries, rows, bbox, window, bucketed):
    """Every query shape over ``rows`` against its brute-force scan; the unfiltered heatmap
    loads every position segment."""
    assert queries.heatmap() == brute_heat(rows, lambda *_row: True)
    t0, t1 = window

    def in_window(_mmsi, t, lat, lon):
        return t0 <= t <= t1 and bbox.contains(lat, lon)

    assert queries.heatmap(bbox=bbox, t0=t0, t1=t1) == brute_heat(rows, in_window)
    assert queries.heatmap(bbox=bbox, t0=t0, t1=t1, by="vessels") == brute_vessels(rows, in_window)
    _mmsi, _t, lat, lon = rows[0]
    disk = set(grid_disk(fine_cell(lat, lon), 1))
    assert queries.kring_heatmap(lat, lon, 1, t0=t0, t1=t1) == brute_heat(
        rows, lambda _m, t, la, lo: t0 <= t <= t1 and fine_cell(la, lo) in disk
    )
    b0, b1, bucket_s = bucketed
    series = queries.cell_event_rate(disk, b0, b1, bucket_s)
    assert series["cells"] == brute_event_rate(rows, disk, b0, b1, bucket_s, series["n_buckets"])
    trend = queries.congestion_trend(b0, b1, bucket_s, bbox=bbox)
    vessels, counts = brute_trend(rows, bbox, b0, b1, bucket_s, trend["n_buckets"])
    assert (trend["vessels"], trend["rows"]) == (vessels, counts)
    for mmsi in {row[0] for row in rows}:
        history = queries.vessel_history(mmsi, t0=t0, t1=t1)
        expected = [(t, la, lo) for m, t, la, lo in rows if m == mmsi and t0 <= t <= t1]
        assert sorted(zip(history["t"], history["lat"], history["lon"])) == sorted(expected)


@given(rows=ROWS, extra=ROWS, bbox=BBOXES, window=WINDOWS, bucketed=BUCKETED)
@settings(deadline=None, max_examples=30)
def test_queries_after_a_merge_equal_brute_force(
    tmp_path_factory, rows, extra, bbox, window, bucketed
):
    """Every query runs once, warming the segment cache; a second commit merges rows into the
    same segments (half of them replayed), and every query again equals a brute-force scan of
    all rows: a commit never leaves a stale segment in the cache."""
    tmp = tmp_path_factory.mktemp("merge")
    warehouse = Warehouse(str(tmp / "wh"), resolution=RESOLUTION)
    compactor = WarehouseCompactor(warehouse, batch_rows=16)
    compactor.compact_journal(journal(rows, start_seq=1))
    queries = WarehouseQueries(warehouse)
    assert_queries_equal_brute_force(queries, rows, bbox, window, bucketed)
    assert warehouse.stats()["cache_bytes"] > 0
    files = {zone["file"] for *_key, zone in warehouse.segments("positions")}
    second = rows[::2] + extra
    compactor.compact_journal(journal(second, start_seq=2 * len(rows) + 1))
    # rows[0] was replayed, so at least its segment was rewritten under a new name.
    assert files - {zone["file"] for *_key, zone in warehouse.segments("positions")}
    assert_queries_equal_brute_force(queries, rows + second, bbox, window, bucketed)


def test_cached_rows_are_read_only(tmp_path):
    """A caller writing into ``load`` or ``read_partition`` rows gets an error instead of
    corrupting the cache."""
    warehouse = compact_rows(tmp_path / "wh", [(7, 60.0, 37.5, 24.5)], batch_rows=16)
    ((_coarse, _day, zone),) = warehouse.segments("positions")
    ((cell, day, _meta),) = warehouse.partitions("positions")
    for table in (warehouse.load(zone), warehouse.read_partition("positions", cell, day)):
        for column in table.values():
            with pytest.raises(ValueError):
                column[0] = 0
    assert warehouse.load(zone)["mmsi"].tolist() == [7]


def test_evicted_segment_reads_back_equal(tmp_path, monkeypatch):
    """With room for one segment, loading a second evicts the first, and the first reads back
    from disk equal to what the cache served."""
    rows = [(1, 60.0, 37.5, 24.5), (2, 120.0, 37.6, 24.6), (3, 60.0, -17.0, 178.0)]
    warehouse = compact_rows(tmp_path / "wh", rows, batch_rows=16)
    first, second = (zone for *_key, zone in warehouse.segments("positions"))
    served = {name: column.copy() for name, column in warehouse.load(first).items()}
    monkeypatch.setattr(warehouse_module, "CACHE_BYTES", warehouse.stats()["cache_bytes"])
    warehouse.load(second)
    assert warehouse.stats()["cache_bytes"] <= warehouse_module.CACHE_BYTES
    misses = warehouse.stats()["cache_misses"]
    reread = warehouse.load(first)
    assert warehouse.stats()["cache_misses"] == misses + 1
    assert served.keys() == reread.keys()
    for name, column in served.items():
        np.testing.assert_array_equal(reread[name], column)
