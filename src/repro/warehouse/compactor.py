"""The compactor: journal rows -> segmented warehouse commits.

Two sources feed the same :class:`~repro.warehouse.warehouse.Warehouse`:

* **The kvstore op journal** (:meth:`WarehouseCompactor.compact_persistence`) — the durable
  path. The writer journals every flushed ``hmset vessel:{mmsi}`` and
  ``rpush events:{kind}`` (PERSISTENCE.md); the compactor tails entries past the warehouse's
  ``journal_seq`` cursor and turns them back into position/event rows. Re-running after any
  crash is idempotent: covered sequences are skipped by construction.
* **A store snapshot** (:meth:`bootstrap_snapshot`) — the bootstrap path for a journal that
  was already truncated by a store compaction: the snapshot's latest ``vessel:*`` states land
  as one row each and the journal cursor jumps to the snapshot's sequence.

Both share one row check (:func:`_row_ok`): a row the cell kernel or the segment naming
cannot take is skipped and counted in ``rows_skipped``, so it never wedges the cursor.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.hexgrid import latlng_to_cells
from repro.warehouse.segments import EVENT_COLUMNS, POSITION_COLUMNS
from repro.warehouse.warehouse import Warehouse

VESSEL_PREFIX = "vessel:"
EVENTS_PREFIX = "events:"

#: Rows with ``|t|`` at or past this are skipped: float seconds stop being exact there.
MAX_ABS_T = 2.0**53


def _row_ok(t: float, lat: float, lon: float) -> bool:
    """The row check every source shares: a finite ``t`` below ``MAX_ABS_T`` in magnitude,
    ``lat`` in [-90, 90] and a finite ``lon`` (NaN fails every comparison)."""
    return abs(t) < MAX_ABS_T and -90.0 <= lat <= 90.0 and math.isfinite(lon)


def _field(payload: Any, *names: str) -> Any:
    """First present field of a dataclass instance or plain dict."""
    if isinstance(payload, dict):
        for name in names:
            if name in payload:
                return payload[name]
        return None
    for name in names:
        value = getattr(payload, name, None)
        if value is not None:
            return value
    return None


def event_row(payload: Any) -> tuple[float, int, int, float, float] | None:
    """``(t, mmsi_a, mmsi_b, lat, lon)`` of one event payload, or None when the payload
    carries no usable time or position or a malformed field (such events are counted and
    skipped — the warehouse is a spatio-temporal store)."""
    lat = _field(payload, "lat", "last_lat")
    lon = _field(payload, "lon", "last_lon")
    t = _field(payload, "t", "t_expected", "t_detected")
    if lat is None or lon is None or t is None:
        return None
    mmsi_a = _field(payload, "mmsi_a", "mmsi")
    mmsi_b = _field(payload, "mmsi_b")
    try:
        mmsi_a, mmsi_b = (-1 if mmsi is None else int(mmsi) for mmsi in (mmsi_a, mmsi_b))
        return float(t), mmsi_a, mmsi_b, float(lat), float(lon)
    except (TypeError, ValueError, OverflowError):
        return None


def _columns(rows: list[tuple], schema: tuple[tuple[str, str], ...], resolution: int) -> dict:
    """A column table (``cell`` first) of rows laid out in ``schema`` order, each in its dtype."""
    table = {
        name: np.fromiter((row[i] for row in rows), dtype, len(rows))
        for i, (name, dtype) in enumerate(schema)
    }
    return {"cell": latlng_to_cells(table["lat"], table["lon"], resolution), **table}


class _RowBuffer:
    """Checked rows in source order, one list of python-scalar tuples per table, converted to
    column tables (one cell-kernel call per table) only at commit time."""

    def __init__(self, resolution: int) -> None:
        self.resolution = resolution
        self.positions: list[tuple] = []
        self.events: list[tuple] = []

    @property
    def rows(self) -> int:
        return len(self.positions) + len(self.events)

    def add_position(self, mmsi: Any, fields: Any) -> bool:
        """Buffer one position row; False when a field is missing or malformed, or the row
        fails the row check. The MMSI must fit the ``<i8`` column: two comparisons against
        constants the compiler folds, the cheapest per-row form."""
        try:
            row = (int(mmsi), *(float(fields[name]) for name in ("t", "lat", "lon", "sog", "cog")))
        except (KeyError, TypeError, ValueError, OverflowError):
            return False
        if not (_row_ok(*row[1:4]) and -(2**63) <= row[0] < 2**63):
            return False
        self.positions.append(row)
        return True

    def add_event(self, kind_id: int, row: tuple | None) -> bool:
        """Buffer one :func:`event_row`; False when it is None, fails the row check, or an
        MMSI does not fit the ``<i8`` column."""
        if row is None or not _row_ok(row[0], row[3], row[4]):
            return False
        if not (-(2**63) <= row[1] < 2**63 and -(2**63) <= row[2] < 2**63):
            return False
        t, mmsi_a, mmsi_b, lat, lon = row
        self.events.append((t, kind_id, mmsi_a, mmsi_b, lat, lon))
        return True

    def tables(self) -> tuple[dict, dict]:
        return (
            _columns(self.positions, POSITION_COLUMNS, self.resolution),
            _columns(self.events, EVENT_COLUMNS, self.resolution),
        )


class WarehouseCompactor:
    """Streams journal entries into warehouse commits."""

    def __init__(self, warehouse: Warehouse, batch_rows: int = 65_536, registry=None) -> None:
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self.warehouse = warehouse
        self.batch_rows = batch_rows
        self.ops_scanned = 0
        self.rows_skipped = 0
        self._instruments = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry) -> None:
        self.warehouse.bind_registry(registry)
        self._instruments = (
            registry.counter("warehouse_journal_ops_scanned_total"),
            registry.counter("warehouse_rows_skipped_total"),
        )

    def _count(self, index: int, amount: int = 1) -> None:
        if self._instruments is not None and amount:
            self._instruments[index].inc(amount)

    def _skip(self) -> None:
        self.rows_skipped += 1
        self._count(1)

    # -- journal tailing --------------------------------------------------------

    def compact_persistence(self, persistence) -> dict:
        """Tail a :class:`~repro.kvstore.persistence.StorePersistence`'s journal past the
        warehouse cursor into committed segments.

        Raises :class:`~repro.kvstore.persistence.JournalGapError`, committing nothing, when a
        store compaction truncated the journal past the cursor: the rows in between are only
        in the store snapshot (WAREHOUSE.md names the two ways on)."""
        return self.compact_journal(persistence.iter_ops(after_seq=self.warehouse.journal_seq))

    def compact_journal(self, entries: Iterable[tuple[int, str, tuple, dict]]) -> dict:
        """Fold journal entries ``(seq, op, args, kwargs)`` in, committing every ``batch_rows``
        buffered rows with the cursor advanced to the last folded sequence. Entries at or below
        the cursor are skipped (re-compaction after a crash re-reads them harmlessly)."""
        covered = self.warehouse.journal_seq
        buffer = _RowBuffer(self.warehouse.resolution)
        totals = {"rows": 0, "segments_written": 0, "commits": 0, "ops_scanned": 0}
        last_seq = covered
        for seq, op, args, _kwargs in entries:
            totals["ops_scanned"] += 1
            if seq <= covered:
                continue
            last_seq = seq
            self._decode_op(op, args, buffer)
            if buffer.rows >= self.batch_rows:
                self._commit(buffer, {"journal_seq": seq}, totals)
                buffer = _RowBuffer(self.warehouse.resolution)
        if buffer.rows or last_seq > self.warehouse.journal_seq:
            self._commit(buffer, {"journal_seq": last_seq}, totals)
        self.ops_scanned += totals["ops_scanned"]
        self._count(0, totals["ops_scanned"])
        return totals

    def _decode_op(self, op: str, args: tuple, buffer: _RowBuffer) -> None:
        if op == "hmset" and args[0].startswith(VESSEL_PREFIX):
            if not buffer.add_position(args[0][len(VESSEL_PREFIX) :], args[1]):
                self._skip()
        elif op == "rpush" and args[0].startswith(EVENTS_PREFIX):
            kind_id = self.warehouse.kind_id(args[0][len(EVENTS_PREFIX) :])
            for payload in args[1:]:
                if not buffer.add_event(kind_id, event_row(payload)):
                    self._skip()

    def _commit(self, buffer: _RowBuffer, cursor: dict, totals: dict) -> None:
        stats = self.warehouse.commit(*buffer.tables(), cursor)
        totals["rows"] += stats["rows"]
        totals["segments_written"] += stats["segments_written"]
        totals["commits"] += 1

    # -- snapshot bootstrap -----------------------------------------------------

    def bootstrap_snapshot(self, snapshot: dict) -> dict:
        """Fold a kvstore snapshot's latest vessel states in (one row per vessel) and jump the
        journal cursor to the snapshot's ``seq`` — the recovery path when the journal was
        truncated by a store compaction before the warehouse could tail it."""
        buffer = _RowBuffer(self.warehouse.resolution)
        for key, value in snapshot.get("data", {}).items():
            if not (key.startswith(VESSEL_PREFIX) and isinstance(value, dict)):
                continue
            if not buffer.add_position(key[len(VESSEL_PREFIX) :], value):
                self._skip()
        seq = snapshot.get("seq", 0)
        return self.warehouse.commit(*buffer.tables(), {"journal_seq": seq, "snapshot_seq": seq})

