"""Unit tests for warehouse + compactor: commits, cursors, idempotence, snapshot bootstrap,
segment layout, the row check, telemetry."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.hexgrid import cell_to_parent, latlng_to_cell
from repro.kvstore.persistence import StorePersistence
from repro.kvstore.store import KeyValueStore
from repro.telemetry import MetricsRegistry
from repro.warehouse import Warehouse, WarehouseCompactor, day_of
from repro.warehouse.warehouse import SEGMENT_LEVELS


@pytest.fixture
def journaled_store(tmp_path):
    persistence = StorePersistence(str(tmp_path / "kv"), compact_every_ops=0)
    store = KeyValueStore(persistence=persistence)
    yield store, persistence
    persistence.close()


def write_fix(store, mmsi: int, t: float, lat: float = 37.5, lon: float = 24.5) -> None:
    store.hmset(f"vessel:{mmsi}", {"t": t, "lat": lat, "lon": lon, "sog": 10.0, "cog": 90.0}, t)


def test_compaction_covers_journal(tmp_path, journaled_store):
    store, persistence = journaled_store
    for i in range(10):
        write_fix(store, 200_000_001, float(i))
    store.rpush(
        "events:proximity",
        {"mmsi_a": 200_000_001, "mmsi_b": 200_000_002, "t": 5.0, "lat": 37.5, "lon": 24.5},
        now=5.0,
    )
    warehouse = Warehouse(str(tmp_path / "wh"))
    compactor = WarehouseCompactor(warehouse)
    stats = compactor.compact_persistence(persistence)
    assert stats["rows"] == 11
    assert warehouse.total_rows("positions") == 10
    assert warehouse.total_rows("events") == 1
    assert warehouse.journal_seq == persistence.seq
    assert warehouse.kinds == ["proximity"]


def test_recompaction_is_idempotent(tmp_path, journaled_store):
    store, persistence = journaled_store
    for i in range(5):
        write_fix(store, 200_000_001, float(i))
    warehouse = Warehouse(str(tmp_path / "wh"))
    compactor = WarehouseCompactor(warehouse)
    compactor.compact_persistence(persistence)
    fingerprint = warehouse.fingerprint()
    again = compactor.compact_persistence(persistence)
    assert again["rows"] == 0
    assert warehouse.fingerprint() == fingerprint
    # New journal tail compacts incrementally.
    write_fix(store, 200_000_001, 99.0)
    tail = compactor.compact_persistence(persistence)
    assert tail["rows"] == 1
    assert warehouse.total_rows("positions") == 6


def test_reopened_warehouse_resumes_from_cursor(tmp_path, journaled_store):
    store, persistence = journaled_store
    for i in range(4):
        write_fix(store, 200_000_001, float(i))
    directory = str(tmp_path / "wh")
    WarehouseCompactor(Warehouse(directory)).compact_persistence(persistence)
    write_fix(store, 200_000_001, 50.0)
    reopened = Warehouse(directory)
    stats = WarehouseCompactor(reopened).compact_persistence(persistence)
    assert stats["rows"] == 1
    assert reopened.total_rows("positions") == 5


def test_rows_partition_by_cell_and_day(tmp_path, journaled_store):
    store, persistence = journaled_store
    write_fix(store, 1, 10.0, lat=37.5, lon=24.5)
    write_fix(store, 1, 10.0 + 86_400.0, lat=37.5, lon=24.5)  # next day
    write_fix(store, 1, 20.0, lat=20.0, lon=-40.0)  # another cell
    warehouse = Warehouse(str(tmp_path / "wh"))
    WarehouseCompactor(warehouse).compact_persistence(persistence)
    partitions = {(cell, day) for cell, day, _ in warehouse.partitions("positions")}
    assert len(partitions) == 3
    assert {day for _, day in partitions} == {0, 1}


def test_rows_within_partition_are_time_sorted(tmp_path, journaled_store):
    store, persistence = journaled_store
    for t in (5.0, 1.0, 3.0, 2.0, 4.0):
        write_fix(store, 200_000_001, t)
    warehouse = Warehouse(str(tmp_path / "wh"))
    WarehouseCompactor(warehouse).compact_persistence(persistence)
    [(cell, day, _)] = warehouse.partitions("positions")
    loaded = warehouse.read_partition("positions", cell, day)
    assert loaded["t"].tolist() == sorted(loaded["t"].tolist())


def test_segments_hold_the_fine_cells_of_one_parent(tmp_path, journaled_store):
    """One segment per (parent cell, day): fine cells become a sorted ``<u8`` column, and the
    manifest zone map bounds exactly the segment's rows."""
    store, persistence = journaled_store
    fixes = [(37.50, 24.50), (37.52, 24.55), (37.55, 24.45), (37.50, 24.50), (20.0, -40.0)]
    for i, (lat, lon) in enumerate(fixes):
        write_fix(store, 200_000_000 + i, float(10 - i), lat=lat, lon=lon)
    warehouse = Warehouse(str(tmp_path / "wh"))
    WarehouseCompactor(warehouse).compact_persistence(persistence)
    fine = {latlng_to_cell(lat, lon, 6) for lat, lon in fixes}
    segments = list(warehouse.segments("positions"))
    assert len(segments) == 2 < len(fine)
    assert sorted(cell for *_, zone in segments for cell in zone["cells"]) == sorted(fine)
    for coarse, day, zone in segments:
        assert day == 0
        assert {cell_to_parent(cell, 6 - SEGMENT_LEVELS) for cell in zone["cells"]} == {coarse}
        assert zone["file"] == f"pos-{coarse:016x}-0.g1.seg"
        rows = warehouse.load(zone)
        assert rows["cell"].dtype == np.dtype("<u8")
        order = np.lexsort((rows["t"], rows["cell"]))
        assert order.tolist() == list(range(zone["rows"]))
        assert zone["cell_rows"] == [int((rows["cell"] == c).sum()) for c in zone["cells"]]
        for name in ("t", "mmsi", "lat", "lon"):
            assert zone[f"{name}_min"] == rows[name].min()
            assert zone[f"{name}_max"] == rows[name].max()


def test_version_1_manifest_is_rejected(tmp_path):
    """Neither version 1 (one file per fine cell) nor version 2 (a second, feed cursor) has a
    reader."""
    for version in (1, 2):
        directory = tmp_path / f"wh{version}"
        directory.mkdir()
        manifest = {"version": version, "resolution": 6}
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"manifest version {version}"):
            Warehouse(str(directory))


def test_malformed_rows_are_skipped_and_counted(tmp_path, journaled_store):
    store, persistence = journaled_store
    write_fix(store, 200_000_001, 1.0)
    store.hmset("vessel:200000002", {"note": "no position"}, 2.0)
    store.hmset(
        "vessel:not-an-mmsi", {"t": 3.0, "lat": 1.0, "lon": 2.0, "sog": 0.0, "cog": 0.0}, 3.0
    )
    store.rpush("events:odd", {"no": "location"}, now=4.0)
    store.set("unrelated", "value", now=5.0)
    warehouse = Warehouse(str(tmp_path / "wh"))
    compactor = WarehouseCompactor(warehouse)
    compactor.compact_persistence(persistence)
    assert warehouse.total_rows("positions") == 1
    assert warehouse.total_rows("events") == 0
    assert compactor.rows_skipped == 3
    # The cursor still covers everything scanned.
    assert warehouse.journal_seq == persistence.seq


def test_poison_rows_are_skipped_and_the_cursor_passes_them(tmp_path, journaled_store):
    """Rows the cell kernel or the segment naming cannot take (a non-finite or huge ``t``, a
    NaN ``lon``, an out-of-range ``lat``) are skipped and counted, and the cursor passes them
    instead of wedging on their sequence."""
    store, persistence = journaled_store
    poison = [
        {"t": math.inf, "lat": 37.5, "lon": 24.5},
        {"t": 1e300, "lat": 37.5, "lon": 24.5},
        {"t": 3.0, "lat": 37.5, "lon": math.nan},
        {"t": 4.0, "lat": 91.0, "lon": 24.5},
    ]
    for i, fields in enumerate(poison):
        write_fix(store, 200_000_001, float(i))
        store.hmset(f"vessel:{200_000_100 + i}", {**fields, "sog": 1.0, "cog": 0.0}, float(i))
    store.rpush("events:proximity", {"mmsi_a": 1, "t": math.inf, "lat": 37.5, "lon": 24.5}, now=5.0)
    write_fix(store, 200_000_001, 6.0)
    warehouse = Warehouse(str(tmp_path / "wh"))
    compactor = WarehouseCompactor(warehouse)
    compactor.compact_persistence(persistence)
    assert warehouse.total_rows("positions") == 5
    assert warehouse.total_rows("events") == 0
    assert compactor.rows_skipped == 5
    assert warehouse.journal_seq == persistence.seq


def test_int64_mmsis_are_exact_and_wider_ones_skipped(tmp_path, journaled_store):
    """An MMSI past 2**53 is stored exactly (columns are built in their own dtype, never
    through float64); a position or event MMSI outside int64 is skipped like any poison row."""
    store, persistence = journaled_store
    for mmsi in (2**62 + 1, 2**63 - 1, 2**63, -(2**63) - 1):
        write_fix(store, mmsi, 1.0)
    for mmsi_a, mmsi_b in ((2**62 + 1, 2**62 + 3), (1, 2**64), (-(2**63) - 1, 1)):
        event = {"mmsi_a": mmsi_a, "mmsi_b": mmsi_b, "t": 2.0, "lat": 37.5, "lon": 24.5}
        store.rpush("events:proximity", event, now=2.0)
    warehouse = Warehouse(str(tmp_path / "wh"))
    compactor = WarehouseCompactor(warehouse)
    compactor.compact_persistence(persistence)
    assert compactor.rows_skipped == 4
    assert warehouse.journal_seq == persistence.seq
    ((cell, day, _meta),) = warehouse.partitions("positions")
    positions = warehouse.read_partition("positions", cell, day)
    assert positions["mmsi"].tolist() == [2**62 + 1, 2**63 - 1]
    events = warehouse.read_partition("events", cell, day)
    assert (events["mmsi_a"].tolist(), events["mmsi_b"].tolist()) == ([2**62 + 1], [2**62 + 3])


def test_polar_rows_are_kept(tmp_path):
    """A fine cell whose centre lies past a pole still gets a segment."""
    warehouse = Warehouse(str(tmp_path / "wh"))
    fix = {"t": 1.0, "lon": 10.0, "sog": 0.0, "cog": 0.0}
    journal = [
        (seq, "hmset", (f"vessel:{seq}", {**fix, "lat": lat}), {})
        for seq, lat in enumerate((90.0, -90.0), start=1)
    ]
    assert WarehouseCompactor(warehouse).compact_journal(journal)["rows"] == 2
    assert warehouse.total_rows("positions") == 2


#: The fingerprint of ``golden_journal()`` compacted at resolution 6 in batches of 7 rows — the
#: digest of the one-file-per-fine-partition layout this one replaced, which the
#: fingerprint must reproduce bit for bit.
GOLDEN_FINGERPRINT = "c2ce863dcb5d75396dd48d1772f8086aeaa22e2a2bba90044f49f3b3057b836d"


def golden_journal():
    """A fixed journal: several cells and segments, four days (one before t = 0), equal-t
    ties, two event kinds and one event with no position."""
    ops = []
    for i in range(48):
        t = -7_200.0 + (i % 24) * 10_800.0  # every t occurs twice
        lat = 37.0 + (i % 4) * 0.05 if i % 7 else 20.0  # rows i and i + 24 share a point
        lon = 24.0 + (i % 3) * 0.05 if i % 7 else -40.0
        fix = {"t": t, "lat": lat, "lon": lon, "sog": i / 4.0, "cog": i * 7.5}
        ops.append(("hmset", (f"vessel:{200_000_000 + i % 5}", fix, t), {}))
        if i % 8 == 0:
            kind = ("proximity", "collision")[i % 16 // 8]
            event = {"mmsi_a": 200_000_000 + i % 5, "t": t, "lat": lat, "lon": lon}
            ops.append(("rpush", (f"events:{kind}", event), {"now": t}))
    ops.append(("rpush", ("events:odd", {"no": "location"}), {"now": 0.0}))
    return [(seq, op, args, kwargs) for seq, (op, args, kwargs) in enumerate(ops, start=1)]


def test_fingerprint_is_pinned(tmp_path):
    warehouse = Warehouse(str(tmp_path / "wh"), resolution=6)
    WarehouseCompactor(warehouse, batch_rows=7).compact_journal(golden_journal())
    assert warehouse.partition_count("positions") == 28
    assert warehouse.fingerprint() == GOLDEN_FINGERPRINT


def test_bootstrap_snapshot_jumps_cursor(tmp_path, journaled_store):
    store, persistence = journaled_store
    write_fix(store, 200_000_001, 1.0)
    write_fix(store, 200_000_002, 2.0)
    store.compact()  # journal folded into the snapshot and truncated
    write_fix(store, 200_000_003, 3.0)  # journal tail past the snapshot

    warehouse = Warehouse(str(tmp_path / "wh"))
    compactor = WarehouseCompactor(warehouse)
    snapshot = persistence.load_snapshot()
    assert snapshot is not None
    compactor.bootstrap_snapshot(snapshot)
    # The snapshot carries only the *latest* state per vessel.
    assert warehouse.total_rows("positions") == 2
    assert warehouse.snapshot_seq == snapshot["seq"]
    # Tailing now picks up only the journal suffix.
    compactor.compact_persistence(persistence)
    assert warehouse.total_rows("positions") == 3


def test_commit_binds_telemetry(tmp_path, journaled_store):
    store, persistence = journaled_store
    for i in range(3):
        write_fix(store, 200_000_001, float(i))
    registry = MetricsRegistry()
    warehouse = Warehouse(str(tmp_path / "wh"), registry=registry)
    compactor = WarehouseCompactor(warehouse, registry=registry)
    compactor.compact_persistence(persistence)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["warehouse_commits_total"] == 1
    assert snapshot["counters"]['warehouse_rows_compacted_total{table="positions"}'] == 3
    assert snapshot["counters"]["warehouse_journal_ops_scanned_total"] == 3


def test_vacuum_removes_only_unreferenced_files(tmp_path, journaled_store):
    store, persistence = journaled_store
    for i in range(3):
        write_fix(store, 200_000_001, float(i))
    directory = str(tmp_path / "wh")
    warehouse = Warehouse(directory)
    WarehouseCompactor(warehouse).compact_persistence(persistence)
    orphan = os.path.join(directory, "pos-dead-0.g9.seg")
    open(orphan, "wb").write(b"orphan")
    open(os.path.join(directory, "pos-x.seg.tmp"), "wb").write(b"torn")
    removed = warehouse.vacuum()
    assert removed == 2
    assert not os.path.exists(orphan)
    # Referenced segments survived and still read back.
    assert warehouse.total_rows("positions") == 3
    [(cell, day, _)] = warehouse.partitions("positions")
    assert len(warehouse.read_partition("positions", cell, day)["t"]) == 3


def test_day_of_handles_negative_time():
    assert day_of(-1.0) == -1
    assert day_of(0.0) == 0
    assert day_of(86_400.0) == 1
