"""OLAP queries over the warehouse, with segment-level predicate pushdown.

Every query prunes on the manifest **before** touching a segment: the day range of the time
predicate, then the segment's zone map — the ``t`` range of its rows, their ``mmsi`` range
(vessel scans), their ``lat``/``lon`` ranges against a bbox (antimeridian-aware interval
overlap), and its fine cells against a cell set (k-ring / explicit). Only surviving segments
are loaded, and row-level masks then make the results exact. A zone map bounds its segment's
own rows, so pruning may only ever *over*-select, never drop a matching row (the property
suite checks this against a brute-force scan oracle).

Latency is measured through the injectable ``clock`` (default ``time.perf_counter``; the AST
wall-clock audit covers this module) into a per-query-kind histogram, alongside counters for
segments scanned vs pruned and rows scanned (``partitions_*`` by name: a segment is the
storage partition).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.hexgrid import grid_disk, latlng_to_cell
from repro.warehouse.segments import concat_tables
from repro.warehouse.warehouse import TABLES, Warehouse, day_of


def _row_bbox_mask(table: dict, bbox: BoundingBox) -> np.ndarray:
    lat, lon = table["lat"], table["lon"]
    mask = (lat >= bbox.lat_min) & (lat <= bbox.lat_max)
    if bbox.crosses_antimeridian:
        return mask & ((lon >= bbox.lon_min) | (lon <= bbox.lon_max))
    return mask & (lon >= bbox.lon_min) & (lon <= bbox.lon_max)


def _zone_overlaps(zone: dict, bbox: BoundingBox) -> bool:
    """Can a row inside ``zone``'s lat/lon ranges pass :func:`_row_bbox_mask`?"""
    if zone["lat_max"] < bbox.lat_min or zone["lat_min"] > bbox.lat_max:
        return False
    if bbox.crosses_antimeridian:
        return zone["lon_max"] >= bbox.lon_min or zone["lon_min"] <= bbox.lon_max
    return zone["lon_max"] >= bbox.lon_min and zone["lon_min"] <= bbox.lon_max


def _cell_rows(cell_column: np.ndarray, wanted: np.ndarray) -> slice | np.ndarray:
    """The rows whose cell is in the sorted ``wanted``: each cell's rows are one run of the sorted
    column (the run its zone map counts), so no other row is touched (a whole segment: a view)."""
    lo = np.searchsorted(cell_column, wanted, "left")
    lengths = np.searchsorted(cell_column, wanted, "right") - lo
    total = lengths.sum()
    if total == len(cell_column):
        return slice(None)
    first = np.cumsum(lengths) - lengths
    return np.arange(total) + np.repeat(lo - first, lengths)


def _distinct_pairs(first: np.ndarray, mmsi: np.ndarray) -> np.ndarray:
    """``first`` of every distinct ``(first, mmsi)`` pair, ``first`` a small non-negative index:
    one int64 key per row from the MMSI's rank, whatever the MMSI values."""
    distinct, rank = np.unique(mmsi, return_inverse=True)
    return np.unique(first.astype(np.int64) * len(distinct) + rank) // len(distinct)


class WarehouseQueries:
    """The query surface the serving tier and benchmarks share."""

    def __init__(
        self, warehouse: Warehouse, registry=None, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.warehouse = warehouse
        self._clock = clock
        self.partitions_scanned = 0
        self.partitions_pruned = 0
        self.rows_scanned = 0
        self._registry = registry
        self._latency: dict[str, object] = {}
        self._counters = None
        if registry is not None:
            self._counters = (
                registry.counter("warehouse_query_partitions_scanned_total"),
                registry.counter("warehouse_query_partitions_pruned_total"),
                registry.counter("warehouse_query_rows_scanned_total"),
            )

    # -- instrumentation --------------------------------------------------------

    def _observe(self, query: str, seconds: float) -> None:
        if self._registry is None:
            return
        hist = self._latency.get(query)
        if hist is None:
            hist = self._latency[query] = self._registry.histogram(
                "warehouse_query_seconds", {"query": query}
            )
        hist.observe(seconds)

    def _account(self, scanned: int, pruned: int, rows: int) -> None:
        self.partitions_scanned += scanned
        self.partitions_pruned += pruned
        self.rows_scanned += rows
        if self._counters is not None:
            s, p, r = self._counters
            s.inc(scanned)
            p.inc(pruned)
            r.inc(rows)

    # -- segment selection (the pushdown) and row masks ------------------------

    def _rows(
        self,
        table: str,
        columns: Sequence[str],
        t0: float,
        t1: float,
        closed: bool = True,
        cells: Iterable[int] | None = None,
        bbox: BoundingBox | None = None,
        mmsi: int | None = None,
    ) -> dict[str, np.ndarray]:
        """``columns`` of every row of ``table`` matching the predicates exactly, in segment
        order; the time window is ``[t0, t1]`` when ``closed``, else ``[t0, t1)``. Only segments
        whose zone map survives every predicate are loaded; accounting happens here."""
        day_lo = day_of(t0) if math.isfinite(t0) else None
        day_hi = day_of(t1) if math.isfinite(t1) else None
        needed = {"t", *columns, *(("lat", "lon") if bbox is not None else ())}
        if mmsi is not None:
            needed.add("mmsi")
        if cells is not None:
            cells = set(cells)
            wanted = np.array(sorted(c for c in cells if 0 <= c < 2**64), dtype=np.uint64)
        chunks = []
        scanned = pruned = rows = 0
        for _coarse, day, zone in self.warehouse.segments(table):
            if (
                (day_lo is not None and day < day_lo)
                or (day_hi is not None and day > day_hi)
                or zone["t_max"] < t0
                or zone["t_min"] > t1
                or (cells is not None and cells.isdisjoint(zone["cells"]))
                or (bbox is not None and not _zone_overlaps(zone, bbox))
                or (mmsi is not None and not zone["mmsi_min"] <= mmsi <= zone["mmsi_max"])
            ):
                pruned += 1
                continue
            scanned += 1
            segment = self.warehouse.load(zone)
            take = slice(None) if cells is None else _cell_rows(segment["cell"], wanted)
            view = {name: segment[name][take] for name in needed}
            t = view["t"]
            rows += len(t)
            mask = (t >= t0) & ((t <= t1) if closed else (t < t1))
            if bbox is not None:
                mask &= _row_bbox_mask(view, bbox)
            if mmsi is not None:
                mask &= view["mmsi"] == mmsi
            chunks.append({name: view[name][mask] for name in columns})
        self._account(scanned, pruned, rows)
        dtypes = dict(TABLES[table][1])
        return concat_tables(chunks or [{name: np.empty(0, dtypes[name]) for name in columns}])

    # -- queries ----------------------------------------------------------------

    def heatmap(
        self,
        bbox: BoundingBox | None = None,
        cells: Iterable[int] | None = None,
        t0: float = -math.inf,
        t1: float = math.inf,
        by: str = "rows",
    ) -> dict[int, int]:
        """Traffic heat per warehouse cell: kept-fix rows (``by="rows"``) or distinct vessels
        (``by="vessels"``) inside the predicates."""
        if by not in ("rows", "vessels"):
            raise ValueError(f"by must be 'rows' or 'vessels', got {by!r}")
        start = self._clock()
        columns = ("cell", "mmsi") if by == "vessels" else ("cell",)
        rows = self._rows("positions", columns, t0, t1, cells=cells, bbox=bbox)
        heat, hits = np.unique(rows["cell"], return_inverse=True)
        if by == "vessels":
            hits = _distinct_pairs(hits, rows["mmsi"])
        counts = np.bincount(hits, minlength=len(heat))
        self._observe("heatmap", self._clock() - start)
        return dict(zip(heat.tolist(), counts.tolist()))

    def kring_heatmap(
        self,
        lat: float,
        lon: float,
        k: int,
        t0: float = -math.inf,
        t1: float = math.inf,
        by: str = "rows",
    ) -> dict[int, int]:
        """Heatmap over the k-ring disk around a point, at the warehouse resolution
        (CheetahGIS-style streaming spatial scan shape)."""
        center = latlng_to_cell(lat, lon, self.warehouse.resolution)
        return self.heatmap(cells=grid_disk(center, k), t0=t0, t1=t1, by=by)

    def cell_event_rate(
        self,
        cells: Iterable[int],
        t0: float,
        t1: float,
        bucket_s: float,
        kinds: Sequence[str] | None = None,
    ) -> dict:
        """Per-cell event-count time series over ``[t0, t1)`` buckets."""
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError("cell_event_rate needs a finite t0 < t1")
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        start = self._clock()
        n_buckets = int(math.ceil((t1 - t0) / bucket_s))
        edges = t0 + bucket_s * np.arange(n_buckets + 1)
        columns = ("t", "cell") if kinds is None else ("t", "cell", "kind_id")
        rows = self._rows("events", columns, t0, t1, closed=False, cells=cells)
        # np.histogram's bins: [edge, next edge), the last one closed; later times count nowhere.
        keep = rows["t"] <= edges[-1]
        if kinds is not None:
            table_kinds = self.warehouse.kinds
            kind_ids = [table_kinds.index(k) for k in kinds if k in table_kinds]
            keep &= np.isin(rows["kind_id"], np.array(kind_ids, dtype=np.int64))
        bucket = np.searchsorted(edges, rows["t"][keep], side="right") - 1
        bucket = np.minimum(bucket, n_buckets - 1)
        cell_ids, inverse = np.unique(rows["cell"][keep], return_inverse=True)
        hist = np.bincount(inverse * n_buckets + bucket, minlength=len(cell_ids) * n_buckets)
        hist = hist.reshape(len(cell_ids), n_buckets)
        result = {
            "t0": t0,
            "bucket_s": bucket_s,
            "n_buckets": n_buckets,
            "cells": dict(zip(cell_ids.tolist(), hist.tolist())),
            "total": hist.sum(axis=0).tolist(),
        }
        self._observe("cell_event_rate", self._clock() - start)
        return result

    def congestion_trend(
        self,
        t0: float,
        t1: float,
        bucket_s: float,
        bbox: BoundingBox | None = None,
        cells: Iterable[int] | None = None,
    ) -> dict:
        """Port-congestion trend: distinct vessels present in the area per time bucket
        (occupancy), plus kept-fix row counts."""
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError("congestion_trend needs a finite t0 < t1")
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        start = self._clock()
        n_buckets = int(math.ceil((t1 - t0) / bucket_s))
        rows = self._rows("positions", ("t", "mmsi"), t0, t1, closed=False, cells=cells, bbox=bbox)
        bucket = ((rows["t"] - t0) // bucket_s).astype(np.int64)
        present = _distinct_pairs(bucket, rows["mmsi"])
        result = {
            "t0": t0,
            "bucket_s": bucket_s,
            "n_buckets": n_buckets,
            "vessels": np.bincount(present, minlength=n_buckets).tolist(),
            "rows": np.bincount(bucket, minlength=n_buckets).tolist(),
        }
        self._observe("congestion_trend", self._clock() - start)
        return result

    def vessel_history(
        self, mmsi: int, t0: float = -math.inf, t1: float = math.inf
    ) -> dict[str, list]:
        """Every kept fix of one vessel in the window, ordered by time (day-range and
        per-segment MMSI-range pruning, then a column scan of the survivors)."""
        start = self._clock()
        columns = ("t", "lat", "lon", "sog", "cog")
        rows = self._rows("positions", columns, t0, t1, mmsi=mmsi)
        order = np.argsort(rows["t"], kind="stable")
        result = {name: rows[name][order].tolist() for name in columns}
        self._observe("vessel_history", self._clock() - start)
        return result
