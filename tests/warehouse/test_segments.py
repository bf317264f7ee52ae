"""Unit tests for the columnar segment format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.warehouse.segments import (
    EVENT_COLUMNS,
    POSITION_COLUMNS,
    CorruptSegmentError,
    concat_tables,
    empty_table,
    read_segment,
    sort_rows,
    table_rows,
    write_segment,
)


def make_positions(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "mmsi": rng.integers(2e8, 2e8 + 50, n),
        "t": rng.uniform(0.0, 86_400.0, n),
        "lat": rng.uniform(35.0, 40.0, n),
        "lon": rng.uniform(22.0, 27.0, n),
        "sog": rng.uniform(0.0, 30.0, n),
        "cog": rng.uniform(0.0, 360.0, n),
    }


def test_round_trip_preserves_rows_and_dtypes(tmp_path):
    table = make_positions(500)
    path = str(tmp_path / "seg.seg")
    write_segment(path, table)
    loaded = read_segment(path)
    assert list(loaded) == list(table)
    for name in table:
        np.testing.assert_array_equal(loaded[name], table[name])
        assert loaded[name].dtype == np.dtype(dict(POSITION_COLUMNS)[name])


def test_empty_table_round_trip(tmp_path):
    path = str(tmp_path / "empty.seg")
    write_segment(path, empty_table(EVENT_COLUMNS))
    loaded = read_segment(path)
    assert table_rows(loaded) == 0
    assert list(loaded) == [name for name, _ in EVENT_COLUMNS]


def test_serialization_is_byte_deterministic(tmp_path):
    """The property BENCH fingerprints and the sim campaign depend on:
    identical rows -> identical bytes, whenever they are written."""
    table = make_positions(100)
    a, b = str(tmp_path / "a.seg"), str(tmp_path / "b.seg")
    write_segment(a, table)
    write_segment(b, {name: column.copy() for name, column in table.items()})
    assert open(a, "rb").read() == open(b, "rb").read()


def test_sort_rows_orders_by_cell_then_time_stably():
    table = {
        "cell": np.array([7, 3, 7, 3, 3], dtype=np.uint64),
        "t": np.array([1.0, 2.0, 1.0, 1.0, 2.0]),
        "mmsi": np.array([10, 11, 12, 13, 14]),
    }
    out = sort_rows(table)
    np.testing.assert_array_equal(out["cell"], [3, 3, 3, 7, 7])
    np.testing.assert_array_equal(out["t"], [1.0, 2.0, 2.0, 1.0, 1.0])
    # Ties keep append order: 11 before 14, 10 before 12.
    np.testing.assert_array_equal(out["mmsi"], [13, 11, 14, 10, 12])


def test_concat_preserves_order():
    a = make_positions(10, seed=1)
    b = make_positions(5, seed=2)
    merged = concat_tables([a, b])
    assert table_rows(merged) == 15
    np.testing.assert_array_equal(merged["t"][:10], a["t"])
    np.testing.assert_array_equal(merged["t"][10:], b["t"])


def test_no_tmp_file_left_behind(tmp_path):
    path = tmp_path / "seg.seg"
    write_segment(str(path), make_positions(10))
    assert [p.name for p in tmp_path.iterdir()] == ["seg.seg"]


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.seg"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CorruptSegmentError, match="bad magic"):
        read_segment(str(path))


def test_truncated_column_raises(tmp_path):
    path = tmp_path / "torn.seg"
    write_segment(str(path), make_positions(50))
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CorruptSegmentError, match="truncated"):
        read_segment(str(path))


def test_trailing_garbage_raises(tmp_path):
    path = tmp_path / "fat.seg"
    write_segment(str(path), make_positions(5))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CorruptSegmentError, match="trailing"):
        read_segment(str(path))


def rewrite_version(path, version: int) -> None:
    """Re-frame ``path``'s header with another ``version`` (the header length changes)."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:12], "little")
    header = json.loads(blob[12 : 12 + header_len])
    header["version"] = version
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        blob[:4] + len(new_header).to_bytes(8, "little") + new_header + blob[12 + header_len :]
    )


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / "old.seg"
    write_segment(str(path), make_positions(3))
    rewrite_version(path, 99)
    with pytest.raises(CorruptSegmentError, match="version"):
        read_segment(str(path))


def test_version_1_segment_is_rejected(tmp_path):
    """The one-file-per-fine-partition format has no reader."""
    path = tmp_path / "v1.seg"
    write_segment(str(path), make_positions(3))
    rewrite_version(path, 1)
    with pytest.raises(CorruptSegmentError, match="segment version 1 != 2"):
        read_segment(str(path))
