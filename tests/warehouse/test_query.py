"""Unit tests for the OLAP query layer: exactness under pruning,
telemetry accounting, and the query shapes the serving routes expose."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.hexgrid import grid_disk, latlng_to_cell
from repro.kvstore.persistence import StorePersistence
from repro.kvstore.store import KeyValueStore
from repro.telemetry import MetricsRegistry
from repro.warehouse import Warehouse, WarehouseCompactor, WarehouseQueries

AREA = BoundingBox(lat_min=36.0, lat_max=39.0, lon_min=23.0, lon_max=26.0)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """A warehouse with 3 days of seeded traffic + events, plus the raw
    rows for brute-force oracles."""
    tmp = tmp_path_factory.mktemp("query")
    persistence = StorePersistence(str(tmp / "kv"), compact_every_ops=0)
    store = KeyValueStore(persistence=persistence)
    rng = np.random.default_rng(42)
    rows = []
    events = []
    for day in range(3):
        for i in range(120):
            mmsi = int(200_000_000 + i % 12)
            t = day * 86_400.0 + i * 600.0
            lat = float(36.0 + rng.uniform(0.0, 3.0))
            lon = float(23.0 + rng.uniform(0.0, 3.0))
            sog = float(rng.uniform(0.0, 20.0))
            cog = float(rng.uniform(0.0, 360.0))
            store.hmset(f"vessel:{mmsi}", {"t": t, "lat": lat, "lon": lon,
                                           "sog": sog, "cog": cog})
            rows.append((mmsi, t, lat, lon))
            if i % 15 == 0:
                store.rpush("events:proximity",
                            {"mmsi_a": mmsi, "mmsi_b": mmsi + 1, "t": t,
                             "lat": lat, "lon": lon})
                events.append((t, lat, lon))
    warehouse = Warehouse(str(tmp / "wh"), resolution=6)
    WarehouseCompactor(warehouse).compact_persistence(persistence)
    persistence.close()
    return warehouse, rows, events


def brute_rows(rows, bbox=None, t0=-math.inf, t1=math.inf):
    out = []
    for mmsi, t, lat, lon in rows:
        if not t0 <= t <= t1:
            continue
        if bbox is not None and not bbox.contains(lat, lon):
            continue
        out.append((mmsi, t, lat, lon))
    return out


@pytest.mark.parametrize("bbox", [
    BoundingBox(lat_min=36.5, lat_max=37.5, lon_min=23.5, lon_max=24.5),
    BoundingBox(lat_min=36.0, lat_max=39.0, lon_min=23.0, lon_max=26.0),
    BoundingBox(lat_min=10.0, lat_max=11.0, lon_min=0.0, lon_max=1.0),
])
def test_heatmap_matches_brute_force(loaded, bbox):
    warehouse, rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    t0, t1 = 3_600.0, 2 * 86_400.0
    heat = queries.heatmap(bbox=bbox, t0=t0, t1=t1)
    assert sum(heat.values()) == len(brute_rows(rows, bbox, t0, t1))


def test_heatmap_by_vessels_counts_distinct_mmsis(loaded):
    warehouse, rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    heat = queries.heatmap(bbox=AREA, by="vessels")
    cells = {}
    for mmsi, t, lat, lon in rows:
        cells.setdefault(latlng_to_cell(lat, lon, 6), set()).add(mmsi)
    assert heat == {cell: len(s) for cell, s in cells.items()}


def test_kring_heatmap_matches_cell_filter(loaded):
    warehouse, rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    heat = queries.kring_heatmap(37.5, 24.5, 2)
    disk = set(grid_disk(latlng_to_cell(37.5, 24.5, 6), 2))
    expected = {}
    for mmsi, t, lat, lon in rows:
        cell = latlng_to_cell(lat, lon, 6)
        if cell in disk:
            expected[cell] = expected.get(cell, 0) + 1
    assert heat == expected


def test_event_rate_buckets_match_brute_force(loaded):
    warehouse, _rows, events = loaded
    queries = WarehouseQueries(warehouse)
    cells = [cell for cell, _d, _m in warehouse.partitions("events")]
    t0, t1, bucket = 0.0, 3 * 86_400.0, 21_600.0
    series = queries.cell_event_rate(cells, t0, t1, bucket)
    expected = [0] * series["n_buckets"]
    for t, _lat, _lon in events:
        if t0 <= t < t1:
            expected[int((t - t0) // bucket)] += 1
    assert series["total"] == expected
    assert sum(series["total"]) == len(events)


def test_event_rate_kind_filter(loaded):
    warehouse, _rows, events = loaded
    queries = WarehouseQueries(warehouse)
    cells = [cell for cell, _d, _m in warehouse.partitions("events")]
    named = queries.cell_event_rate(cells, 0.0, 3 * 86_400.0, 86_400.0,
                                    kinds=["proximity"])
    unknown = queries.cell_event_rate(cells, 0.0, 3 * 86_400.0, 86_400.0,
                                      kinds=["no-such-kind"])
    assert sum(named["total"]) == len(events)
    assert sum(unknown["total"]) == 0


def test_congestion_trend_counts_distinct_vessels(loaded):
    warehouse, rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    bucket = 86_400.0
    trend = queries.congestion_trend(0.0, 3 * 86_400.0, bucket, bbox=AREA)
    expected_vessels = [set() for _ in range(3)]
    expected_rows = [0, 0, 0]
    for mmsi, t, lat, lon in rows:
        b = int(t // bucket)
        expected_vessels[b].add(mmsi)
        expected_rows[b] += 1
    assert trend["vessels"] == [len(s) for s in expected_vessels]
    assert trend["rows"] == expected_rows


def test_vessel_history_is_complete_and_sorted(loaded):
    warehouse, rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    mmsi = 200_000_003
    history = queries.vessel_history(mmsi)
    expected = sorted(t for m, t, _lat, _lon in rows if m == mmsi)
    assert history["t"] == expected
    assert len(history["lat"]) == len(expected)


def test_vessel_history_unknown_mmsi_is_empty(loaded):
    warehouse, _rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    history = queries.vessel_history(999)
    assert history["t"] == []


def test_pruning_actually_prunes(loaded):
    """A small bbox over one day must prune most partitions; pruning is
    observable through both the instance counters and the registry."""
    warehouse, _rows, _events = loaded
    registry = MetricsRegistry()
    queries = WarehouseQueries(warehouse, registry=registry)
    small = BoundingBox(lat_min=36.5, lat_max=36.8,
                        lon_min=23.5, lon_max=23.8)
    queries.heatmap(bbox=small, t0=0.0, t1=8_000.0)
    assert queries.partitions_pruned > queries.partitions_scanned
    counters = registry.snapshot()["counters"]
    assert counters["warehouse_query_partitions_pruned_total"] \
        == queries.partitions_pruned
    assert counters["warehouse_query_partitions_scanned_total"] \
        == queries.partitions_scanned


def test_query_latency_histogram_recorded(loaded):
    warehouse, _rows, _events = loaded
    registry = MetricsRegistry()
    queries = WarehouseQueries(warehouse, registry=registry)
    queries.heatmap(bbox=AREA)
    queries.vessel_history(200_000_000)
    histograms = registry.snapshot()["histograms"]
    assert histograms['warehouse_query_seconds{query="heatmap"}']["count"] \
        == 1
    assert histograms[
        'warehouse_query_seconds{query="vessel_history"}']["count"] == 1


def test_invalid_arguments_raise(loaded):
    warehouse, _rows, _events = loaded
    queries = WarehouseQueries(warehouse)
    with pytest.raises(ValueError):
        queries.heatmap(by="nope")
    with pytest.raises(ValueError):
        queries.cell_event_rate([], 0.0, math.inf, 60.0)
    with pytest.raises(ValueError):
        queries.congestion_trend(0.0, 10.0, 0.0)
