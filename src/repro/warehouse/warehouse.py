"""The segmented warehouse directory and its manifest.

A :class:`Warehouse` owns one directory of columnar segment files (see ``segments.py``) plus a
``manifest.json``. A segment holds one table's rows for one *coarse* cell — the parent of the
rows' fine cells ``SEGMENT_LEVELS`` resolutions up — and one UTC day, sorted by (fine cell, t).
For every segment the manifest names its current file and carries its **zone map**: the
``t``, ``mmsi``, ``lat`` and ``lon`` ranges of its rows and its sorted fine cells with their
row counts, so queries prune without opening a file. The manifest also carries the
**cursor**: the last kvstore journal sequence whose rows the referenced segments cover.

Idempotence contract (the compaction crash window):

1. every touched segment is rewritten to a *new generation* file
   (``pos-<coarse>-<day>.g<N>.seg``, atomic tmp + ``os.replace``);
2. the manifest — new file names + advanced cursor — is replaced atomically **after** all
   segment writes;
3. superseded generation files are unlinked only after the manifest is durable (a crash in
   between leaves orphans for :meth:`vacuum`).

A crash anywhere inside a commit therefore leaves the manifest pointing at the *previous*
generation with the *previous* cursor, and re-running compaction replays exactly the uncovered
journal suffix into exactly the same logical state: warehouse contents are a pure function of
the source journal, whatever crash schedule interrupted compaction — the property
:meth:`fingerprint` lets the sim campaign assert byte-for-byte.

Within a fine (cell, day) partition rows are kept stably sorted by ``t`` (ties keep journal
order). Appending a journal-ordered batch and re-running a stable sort preserves
(t, journal-position) order under *any* batch split, which is why the fingerprint is
schedule-independent.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Callable, Iterator

import numpy as np

from repro.hexgrid import cell_to_latlng, latlng_to_cells
from repro.warehouse.segments import (
    CELL_COLUMN,
    EVENT_COLUMNS,
    POSITION_COLUMNS,
    concat_tables,
    empty_table,
    read_segment,
    sort_rows,
    table_rows,
    take_rows,
    write_segment,
)

MANIFEST_FILE = "manifest.json"
MANIFEST_VERSION = 3

#: Resolutions between a row's fine cell and the coarse cell keying its segment: about
#: 7**3 = 343 fine cells per segment.
SEGMENT_LEVELS = 3

#: Seconds per warehouse day partition.
DAY_S = 86_400.0

#: Decoded bytes one :class:`Warehouse` keeps in its segment cache (least recently used out):
#: three times the whole benchmark warehouse (1.32 MB in 45 segments), so its sweeps never evict.
CACHE_BYTES = 4 << 20

#: Table names and their file prefixes / segment column schemas.
TABLES: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "positions": ("pos", (CELL_COLUMN, *POSITION_COLUMNS)),
    "events": ("evt", (CELL_COLUMN, *EVENT_COLUMNS)),
}


def day_of(t: float) -> int:
    """UTC day index of a timestamp (floor, so negative t stays sane)."""
    return int(np.floor(t / DAY_S))


def partition_key(cell: int, day: int) -> str:
    """Canonical key of a (cell, day) pair: a fine partition, or a segment for a coarse cell."""
    return f"{cell:016x}:{day}"


def parse_partition_key(key: str) -> tuple[int, int]:
    cell_hex, _, day = key.partition(":")
    return int(cell_hex, 16), int(day)


def segment_cells(cells: np.ndarray, resolution: int) -> np.ndarray:
    """The coarse cell keying each fine cell's segment:
    ``cell_to_parent(cell, max(0, resolution - SEGMENT_LEVELS))``, computed once per distinct
    cell. A fine centre past a pole is clamped onto it (the scalar would raise there)."""
    coarse_res = max(0, resolution - SEGMENT_LEVELS)
    if coarse_res == resolution:
        return cells
    distinct, inverse = np.unique(cells, return_inverse=True)
    centres = np.array([cell_to_latlng(cell) for cell in distinct.tolist()]).reshape(-1, 2)
    lats = np.clip(centres[:, 0], -90.0, 90.0)
    return latlng_to_cells(lats, centres[:, 1], coarse_res)[inverse]


def _zone_map(rows: dict[str, np.ndarray]) -> dict:
    """A segment's manifest entry minus its file: row count, value ranges, fine cells."""
    cells, counts = np.unique(rows["cell"], return_counts=True)
    entry = {"rows": table_rows(rows), "cells": cells.tolist(), "cell_rows": counts.tolist()}
    for name in ("t", "mmsi", "lat", "lon"):
        if name in rows:
            entry[f"{name}_min"] = rows[name].min().item()
            entry[f"{name}_max"] = rows[name].max().item()
    return entry


class Warehouse:
    """One warehouse directory: segments + manifest with zone maps + cursor. Nothing here
    locks, so an instance takes no query while it commits."""

    def __init__(self, directory: str, resolution: int = 6, registry=None) -> None:
        if not 0 <= resolution <= 15:
            raise ValueError(f"resolution must be in [0, 15], got {resolution}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_FILE)
        #: Test/simulation hook: called as ``failpoint(stage, detail)`` at
        #: ``("segment", key)`` once per segment written, ``("manifest", None)`` and
        #: ``("committed", None)``; raising simulates a crash there.
        self.failpoint: Callable[[str, Any], None] | None = None
        self._manifest = self._load_manifest(resolution)
        if self._manifest["resolution"] != resolution:
            raise ValueError(
                f"warehouse at {directory} uses resolution "
                f"{self._manifest['resolution']}, not {resolution}"
            )
        self.resolution = self._manifest["resolution"]
        #: table -> its ``(coarse, day, zone map)`` list in key order; None
        #: from the start of a commit until the next read rebuilds it.
        self._segment_lists: dict[str, list[tuple[int, int, dict]]] | None = None
        self._cache: OrderedDict[str, tuple[dict[str, np.ndarray], int]] = OrderedDict()
        self._cache_bytes = self._cache_hits = self._cache_misses = 0
        self._instruments = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry) -> None:
        """Attach telemetry instruments (idempotent)."""
        self._instruments = (
            registry.counter("warehouse_commits_total"),
            registry.counter("warehouse_segments_written_total"),
            {
                name: registry.counter("warehouse_rows_compacted_total", {"table": name})
                for name in TABLES
            },
            registry.histogram("warehouse_commit_rows"),
            registry.histogram("warehouse_segment_bytes"),
        )

    # -- manifest ---------------------------------------------------------------

    def _load_manifest(self, resolution: int) -> dict:
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if manifest.get("version") != MANIFEST_VERSION:
                raise ValueError(
                    f"manifest version {manifest.get('version')!r} != {MANIFEST_VERSION}"
                )
            return manifest
        return {
            "version": MANIFEST_VERSION,
            "resolution": resolution,
            "cursor": {"journal_seq": 0, "snapshot_seq": 0},
            "kinds": [],
            "positions": {},
            "events": {},
        }

    def _write_manifest(self) -> None:
        payload = json.dumps(self._manifest, sort_keys=True, separators=(",", ":")).encode()
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, self.manifest_path)

    @property
    def journal_seq(self) -> int:
        """Last kvstore journal sequence the segments cover."""
        return self._manifest["cursor"]["journal_seq"]

    @property
    def snapshot_seq(self) -> int:
        return self._manifest["cursor"]["snapshot_seq"]

    @property
    def kinds(self) -> list[str]:
        """The event-kind intern table (``kind_id`` indexes into this)."""
        return list(self._manifest["kinds"])

    def kind_id(self, kind: str) -> int:
        """Intern an event kind; the id is durable from the next commit."""
        kinds = self._manifest["kinds"]
        try:
            return kinds.index(kind)
        except ValueError:
            kinds.append(kind)
            return len(kinds) - 1

    # -- reads ------------------------------------------------------------------

    def segments(self, table: str = "positions") -> Iterator[tuple[int, int, dict]]:
        """Yield ``(coarse cell, day, zone map)`` for every segment of ``table``, in key order
        (so scans do not depend on the commit history)."""
        if self._segment_lists is None:
            self._segment_lists = {}
            for name in TABLES:
                entries = self._manifest[name]
                self._segment_lists[name] = [
                    (*parse_partition_key(key), entries[key]) for key in sorted(entries)
                ]
        return iter(self._segment_lists[table])

    def load(self, entry: dict) -> dict[str, np.ndarray]:
        """One segment's rows, sorted by (cell, t), as read-only arrays. Decoded segments stay in
        an LRU keyed by file name, bounded by ``CACHE_BYTES``: a rewrite takes a new generation,
        so a file's content never changes while the manifest names it."""
        name = entry["file"]
        if name in self._cache:
            self._cache_hits += 1
            self._cache.move_to_end(name)
            return self._cache[name][0]
        self._cache_misses += 1
        table = read_segment(os.path.join(self.directory, name))
        self._cache[name] = table, sum(column.nbytes for column in table.values())
        self._cache_bytes += self._cache[name][1]
        while self._cache_bytes > CACHE_BYTES:
            self._cache_bytes -= self._cache.popitem(last=False)[1][1]
        return table

    def _slices(self, table: str) -> Iterator[tuple[int, int, dict, int, int]]:
        """``(cell, day, zone map, lo, hi)`` per fine partition: rows ``lo:hi`` of a segment."""
        for _coarse, day, entry in self.segments(table):
            hi = 0
            for cell, rows in zip(entry["cells"], entry["cell_rows"]):
                lo, hi = hi, hi + rows
                yield cell, day, entry, lo, hi

    def partitions(self, table: str = "positions") -> Iterator[tuple[int, int, dict]]:
        """Yield ``(cell, day, meta)`` for every fine partition of ``table`` holding rows;
        ``meta["rows"]`` is its row count."""
        for cell, day, _entry, lo, hi in self._slices(table):
            yield cell, day, {"rows": hi - lo}

    def partition_count(self, table: str = "positions") -> int:
        return sum(len(entry["cells"]) for entry in self._manifest[table].values())

    def total_rows(self, table: str = "positions") -> int:
        return sum(entry["rows"] for entry in self._manifest[table].values())

    def read_partition(self, table: str, cell: int, day: int) -> dict[str, np.ndarray]:
        """Load one fine partition's rows: its slice of the segment holding it (empty table if
        absent)."""
        coarse = int(segment_cells(np.array([cell], dtype=np.uint64), self.resolution)[0])
        entry = self._manifest[table].get(partition_key(coarse, day), {"cells": []})
        index = bisect_left(entry["cells"], cell)
        if entry["cells"][index : index + 1] != [cell]:
            return empty_table(TABLES[table][1])
        lo, rows = sum(entry["cell_rows"][:index]), entry["cell_rows"][index]
        return {name: column[lo : lo + rows] for name, column in self.load(entry).items()}

    def stats(self) -> dict:
        return {
            "resolution": self.resolution,
            "journal_seq": self.journal_seq,
            "positions_rows": self.total_rows("positions"),
            "events_rows": self.total_rows("events"),
            "positions_partitions": self.partition_count("positions"),
            "events_partitions": self.partition_count("events"),
            "kinds": self.kinds,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache_bytes": self._cache_bytes,
        }

    # -- commit -----------------------------------------------------------------

    def _fail(self, stage: str, detail) -> None:
        if self.failpoint is not None:
            self.failpoint(stage, detail)

    def _segment_batches(self, batch: dict[str, np.ndarray]) -> Iterator[tuple[str, dict]]:
        """Split a source-ordered batch into ``(segment key, rows)`` sorted by segment, each
        batch's rows stably sorted by (cell, t)."""
        n = table_rows(batch)
        if n == 0:
            return
        days = np.floor(batch["t"] / DAY_S).astype(np.int64)
        coarse = segment_cells(batch["cell"], self.resolution)
        order = np.lexsort((batch["t"], batch["cell"], days, coarse))
        batch, days, coarse = take_rows(batch, order), days[order], coarse[order]
        starts = np.flatnonzero((np.diff(coarse) != 0) | (np.diff(days) != 0)) + 1
        bounds = [0, *starts.tolist(), n]
        for lo, hi in zip(bounds, bounds[1:]):
            key = partition_key(int(coarse[lo]), int(days[lo]))
            yield key, {name: column[lo:hi] for name, column in batch.items()}

    def commit(
        self,
        positions: dict[str, np.ndarray],
        events: dict[str, np.ndarray],
        cursor: dict | None = None,
    ) -> dict:
        """Fold row batches in and advance the cursor.

        ``positions``/``events`` are column tables in source (journal) order with a
        ``cell`` column of fine cells at the warehouse resolution. Returns commit stats.
        """
        new_rows = segments_written = bytes_written = 0
        doomed: list[str] = []
        self._segment_lists = None
        for table, batch in (("positions", positions), ("events", events)):
            prefix = TABLES[table][0]
            entries = self._manifest[table]
            for key, rows in self._segment_batches(batch):
                entry = entries.get(key)
                if entry is None:
                    merged, gen = rows, 0
                else:
                    merged = sort_rows(concat_tables([self.load(entry), rows]))
                    gen = entry["gen"]
                    doomed.append(entry["file"])
                coarse, day = parse_partition_key(key)
                filename = f"{prefix}-{coarse:016x}-{day}.g{gen + 1}.seg"
                # A file leaves the cache before it is written, and again once it is unlinked.
                self._cache_bytes -= self._cache.pop(filename, (None, 0))[1]
                bytes_written += write_segment(os.path.join(self.directory, filename), merged)
                segments_written += 1
                new_rows += table_rows(rows)
                entries[key] = {"file": filename, "gen": gen + 1, **_zone_map(merged)}
                self._record_rows(table, table_rows(rows))
                self._fail("segment", key)
        if cursor:
            cur = self._manifest["cursor"]
            if "journal_seq" in cursor:
                cur["journal_seq"] = max(cur["journal_seq"], cursor["journal_seq"])
            if "snapshot_seq" in cursor:
                cur["snapshot_seq"] = max(cur["snapshot_seq"], cursor["snapshot_seq"])
        self._fail("manifest", None)
        self._write_manifest()
        # Only now are the previous generations garbage.
        for filename in doomed:
            try:
                os.unlink(os.path.join(self.directory, filename))
            except FileNotFoundError:
                pass
            self._cache_bytes -= self._cache.pop(filename, (None, 0))[1]
        self._fail("committed", None)
        if self._instruments is not None:
            commits, segs, rows_c, rows_h, bytes_h = self._instruments
            commits.inc()
            segs.inc(segments_written)
            rows_h.observe(new_rows)
            if bytes_written:
                bytes_h.observe(bytes_written)
        return {
            "rows": new_rows,
            "segments_written": segments_written,
            "bytes_written": bytes_written,
        }

    def _record_rows(self, table: str, rows: int) -> None:
        if self._instruments is not None:
            self._instruments[2][table].inc(rows)

    # -- maintenance ------------------------------------------------------------

    def vacuum(self) -> int:
        """Delete files the manifest does not reference (crash leftovers: orphaned generations
        and ``*.tmp``). Returns the number removed."""
        referenced = {MANIFEST_FILE}
        for table in TABLES:
            for entry in self._manifest[table].values():
                referenced.add(entry["file"])
        removed = 0
        for filename in os.listdir(self.directory):
            if filename in referenced:
                continue
            if filename.endswith(".seg") or filename.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.directory, filename))
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def fingerprint(self) -> str:
        """Digest of the warehouse's *logical* content: the kind table, then every fine
        partition's key and schema-column bytes, in sorted key order. The segment layout,
        the ``cell`` column, generation numbers and file names are excluded — two warehouses
        built from the same journal through different crash schedules fingerprint
        identically (the sim campaign's byte-equality check).
        """
        digest = hashlib.sha256()
        digest.update(json.dumps(self._manifest["kinds"]).encode())
        for table in sorted(TABLES):
            digest.update(table.encode())
            names = sorted(name for name, _dtype in TABLES[table][1] if name != "cell")
            loaded: dict[str, dict[str, np.ndarray]] = {}
            slices = sorted(
                (partition_key(cell, day), entry["file"], lo, hi)
                for cell, day, entry, lo, hi in self._slices(table)
            )
            for key, filename, lo, hi in slices:
                if filename not in loaded:
                    loaded[filename] = read_segment(os.path.join(self.directory, filename))
                digest.update(key.encode())
                for name in names:
                    digest.update(name.encode())
                    digest.update(loaded[filename][name][lo:hi].tobytes())
        return digest.hexdigest()
