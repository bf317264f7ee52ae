"""Columnar segment files for the historical analytics warehouse.

A segment holds the rows of one table for one coarse H3 cell and one UTC day as contiguous
numpy columns — the on-disk twin of :class:`repro.streams.columnar.PositionBlock`'s
struct-of-arrays layout. Following DIPAAL (PAPERS.md), the storage unit is coarse and the cell
hierarchy lives inside it: a leading ``cell`` column holds each row's fine cell, and rows are
sorted by (``cell``, ``t``), so every fine (cell, day) partition is one contiguous slice.

The format is deliberately byte-deterministic: the same logical rows always serialize to the
same bytes, whatever compaction schedule produced them. That is what lets the
crash-interrupted compaction campaign assert *byte* equality against a fault-free oracle
(``np.savez`` would embed zip member timestamps and break this).

Layout::

    RWHS (4 bytes magic)
    header length (8 bytes, little-endian unsigned)
    header JSON: {"version", "columns": [[name, dtype], ...], "rows": N}
    column payloads, concatenated in header order, C-contiguous

Writes are crash-safe the same way the kvstore snapshot is: the payload lands in
``<path>.tmp`` first and is atomically ``os.replace``d into place, so a reader never observes
a half-written segment.
"""

from __future__ import annotations

import json
import os

import numpy as np

MAGIC = b"RWHS"
SEGMENT_VERSION = 2

#: The fine cell (at the warehouse resolution) every warehouse segment leads with.
CELL_COLUMN: tuple[str, str] = ("cell", "<u8")

#: Column schema of a position segment (mirrors ``PositionBlock``).
POSITION_COLUMNS: tuple[tuple[str, str], ...] = (
    ("mmsi", "<i8"),
    ("t", "<f8"),
    ("lat", "<f8"),
    ("lon", "<f8"),
    ("sog", "<f8"),
    ("cog", "<f8"),
)

#: Column schema of an event segment. ``kind_id`` indexes the manifest's kind table;
#: ``mmsi_b`` is -1 for single-vessel events.
EVENT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("t", "<f8"),
    ("kind_id", "<i8"),
    ("mmsi_a", "<i8"),
    ("mmsi_b", "<i8"),
    ("lat", "<f8"),
    ("lon", "<f8"),
)


class CorruptSegmentError(RuntimeError):
    """A segment file could not be decoded."""


def empty_table(columns: tuple[tuple[str, str], ...]) -> dict[str, np.ndarray]:
    """A zero-row table with ``columns``' schema."""
    return {name: np.empty(0, dtype=np.dtype(dtype)) for name, dtype in columns}


def table_rows(table: dict[str, np.ndarray]) -> int:
    """Row count of a column table (0 for an empty dict)."""
    for column in table.values():
        return len(column)
    return 0


def concat_tables(tables: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Concatenate column tables sharing one schema, preserving order."""
    if not tables:
        return {}
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


def take_rows(table: dict[str, np.ndarray], index: np.ndarray) -> dict[str, np.ndarray]:
    """A new table holding ``table``'s rows at ``index``, in order."""
    return {name: column[index] for name, column in table.items()}


def sort_rows(table: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Rows stably ordered by (``cell``, ``t``): ties keep their append order, which is journal
    order — the segment invariant queries and the fingerprint rely on."""
    return take_rows(table, np.lexsort((table["t"], table["cell"])))


def write_segment(path: str, table: dict[str, np.ndarray]) -> int:
    """Serialize ``table`` to ``path`` atomically; returns bytes written."""
    columns = [[name, column.dtype.newbyteorder("<").str] for name, column in table.items()]
    header = json.dumps(
        {"version": SEGMENT_VERSION, "columns": columns, "rows": table_rows(table)},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    parts = [MAGIC, len(header).to_bytes(8, "little"), header]
    for column in table.values():
        little = column.astype(column.dtype.newbyteorder("<"), copy=False)
        parts.append(np.ascontiguousarray(little).tobytes())
    payload = b"".join(parts)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)
    return len(payload)


def read_segment(path: str) -> dict[str, np.ndarray]:
    """Load a segment into a column table of read-only arrays over copies of the file's bytes
    (never an mmap). Every call reads the disk: ``Warehouse.load`` is the cached read."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CorruptSegmentError(f"{path}: bad magic {blob[:4]!r}")
    header_len = int.from_bytes(blob[4:12], "little")
    try:
        header = json.loads(blob[12 : 12 + header_len])
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptSegmentError(f"{path}: undecodable header") from exc
    if header.get("version") != SEGMENT_VERSION:
        raise CorruptSegmentError(
            f"{path}: segment version {header.get('version')!r} != {SEGMENT_VERSION}"
        )
    rows = header["rows"]
    table: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for name, dtype_str in header["columns"]:
        dtype = np.dtype(dtype_str)
        nbytes = rows * dtype.itemsize
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CorruptSegmentError(
                f"{path}: column {name!r} truncated ({len(chunk)} of {nbytes} bytes)"
            )
        table[name] = np.frombuffer(chunk, dtype=dtype)
        offset += nbytes
    if offset != len(blob):
        raise CorruptSegmentError(f"{path}: {len(blob) - offset} trailing bytes")
    return table
