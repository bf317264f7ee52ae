"""Durability tests for the kvstore journal + snapshot layer."""

import os
import pickle

import pytest

from repro.kvstore import (
    CorruptPersistenceError,
    JournalGapError,
    KeyValueStore,
    StorePersistence,
    WrongTypeError,
)
from repro.kvstore.persistence import FORMAT_VERSION, JOURNAL_FILE, SNAPSHOT_FILE


def populate(store: KeyValueStore) -> None:
    store.hmset("h", {"a": 1})
    store.hmset("h", {"b": 2, "c": 3})
    store.rpush("l", "w", "x", "y")
    store.ltrim("l", 0, 1)
    store.zadd("z", 1.5, "m1")
    store.zadd("z", 2.5, "m2")


def test_journal_replay_round_trip(tmp_path):
    d = str(tmp_path / "kv")
    store = KeyValueStore(StorePersistence(d))
    populate(store)

    recovered = KeyValueStore(StorePersistence(d))
    assert recovered.snapshot_state() == store.snapshot_state()
    assert recovered.lrange("l", 0, -1) == ["w", "x"]
    assert recovered.zrangebyscore("z", 0.0, 3.0) == [("m1", 1.5), ("m2", 2.5)]
    assert recovered.hgetall("h") == {"a": 1, "b": 2, "c": 3}


def test_snapshot_plus_suffix_replay(tmp_path):
    d = str(tmp_path / "kv")
    persistence = StorePersistence(d)
    store = KeyValueStore(persistence)
    populate(store)
    persistence.compact(store)
    assert persistence.compactions == 1
    assert list(persistence.iter_ops(after_seq=persistence.seq)) == []
    # Ops after the snapshot land in the journal only.
    store.rpush("l", "z")
    store.zadd("z", 3.5, "m3")

    fresh = StorePersistence(d)
    recovered = KeyValueStore()
    replayed = recovered.bind_persistence(fresh)
    assert replayed == 2  # only the post-snapshot suffix
    assert recovered.snapshot_state() == store.snapshot_state()
    assert recovered.zcard("z") == 3


def test_auto_compaction_threshold(tmp_path):
    persistence = StorePersistence(str(tmp_path / "kv"), compact_every_ops=10)
    store = KeyValueStore(persistence)
    for i in range(25):
        store.hmset(f"k{i}", {"i": i})
    assert persistence.compactions == 2
    assert persistence.ops_journaled == 25
    recovered = KeyValueStore(StorePersistence(str(tmp_path / "kv")))
    assert recovered.snapshot_state() == store.snapshot_state()


def test_non_idempotent_ops_not_double_applied(tmp_path):
    """Crash between snapshot write and journal truncate must not replay
    pre-snapshot rpush entries on recovery."""
    d = str(tmp_path / "kv")
    persistence = StorePersistence(d)
    store = KeyValueStore(persistence)
    store.rpush("l", "a", "b")
    store.rpush("l", "c")
    # Simulate the torn state: snapshot written, journal NOT truncated.
    state = store.snapshot_state()
    payload = pickle.dumps({"version": FORMAT_VERSION, "seq": persistence.seq,
                            **state}, protocol=pickle.HIGHEST_PROTOCOL)
    with open(os.path.join(d, SNAPSHOT_FILE), "wb") as fh:
        fh.write(payload)

    recovered = KeyValueStore()
    replayed = recovered.bind_persistence(StorePersistence(d))
    assert replayed == 0  # stale entries skipped by sequence filter
    assert recovered.lrange("l", 0, -1) == ["a", "b", "c"]


def test_torn_journal_tail_is_tolerated(tmp_path):
    d = str(tmp_path / "kv")
    store = KeyValueStore(StorePersistence(d))
    store.hmset("a", {"f": 1})
    store.rpush("b", 2)
    # A crash mid-append leaves a truncated pickle frame at the tail.
    path = os.path.join(d, JOURNAL_FILE)
    with open(path, "ab") as fh:
        fh.write(b"\x80\x05\x95\xff\xff")

    recovered = KeyValueStore(StorePersistence(d))
    assert recovered.hgetall("a") == {"f": 1}
    assert recovered.lrange("b", 0, -1) == [2]


def test_corrupt_snapshot_raises(tmp_path):
    d = str(tmp_path / "kv")
    os.makedirs(d)
    with open(os.path.join(d, SNAPSHOT_FILE), "wb") as fh:
        fh.write(b"not a pickle at all")
    with pytest.raises(CorruptPersistenceError):
        KeyValueStore(StorePersistence(d))


def test_version_mismatch_raises(tmp_path):
    d = str(tmp_path / "kv")
    os.makedirs(d)
    payload = pickle.dumps({"version": 999, "seq": 0, "data": {}})
    with open(os.path.join(d, SNAPSHOT_FILE), "wb") as fh:
        fh.write(payload)
    with pytest.raises(CorruptPersistenceError):
        KeyValueStore(StorePersistence(d))


def test_parent_format_snapshot_raises(tmp_path):
    """A format-1 snapshot (with its ``expiry`` map) is refused, not half
    restored."""
    d = str(tmp_path / "kv")
    os.makedirs(d)
    payload = pickle.dumps({"version": 1, "seq": 3,
                            "data": {"l": ["a"]}, "expiry": {}})
    with open(os.path.join(d, SNAPSHOT_FILE), "wb") as fh:
        fh.write(payload)
    with pytest.raises(CorruptPersistenceError):
        KeyValueStore(StorePersistence(d))


def test_parent_format_journal_raises_before_replay(tmp_path):
    """A format-1 journal (no header frame, a clock on every op) raises
    CorruptPersistenceError before any op is replayed, instead of a
    TypeError from the first op whose arguments no longer fit."""
    d = str(tmp_path / "kv")
    os.makedirs(d)
    with open(os.path.join(d, JOURNAL_FILE), "wb") as fh:
        pickle.dump((1, "rpush", ("l", "a"), {}), fh)
        pickle.dump((2, "hmset", ("h", {"f": 1}, 5.0), {}), fh)
    store = KeyValueStore()
    with pytest.raises(CorruptPersistenceError):
        store.bind_persistence(StorePersistence(d))
    assert store.snapshot_state() == {"data": {}}


def test_failed_commands_are_not_journaled(tmp_path):
    persistence = StorePersistence(str(tmp_path / "kv"))
    store = KeyValueStore(persistence)
    store.rpush("l", "x")
    before = persistence.ops_journaled
    with pytest.raises(WrongTypeError):
        store.hmset("l", {"f": 1})
    with pytest.raises(WrongTypeError):
        store.zadd("l", 1.0, "m")
    assert persistence.ops_journaled == before
    # No-op mutations skip the journal too.
    store.ltrim("missing", 0, -1)
    assert persistence.ops_journaled == before


def test_snapshot_state_does_not_alias(tmp_path):
    store = KeyValueStore()
    store.rpush("l", "a")
    state = store.snapshot_state()
    state["data"]["l"].append("mutated")
    assert store.lrange("l", 0, -1) == ["a"]


def test_iter_ops_resumes_after_seq(tmp_path):
    """The warehouse compactor's read path: ``iter_ops(after_seq)`` yields
    exactly the journal suffix, in order, with monotone sequence numbers."""
    d = str(tmp_path / "kv")
    persistence = StorePersistence(d, compact_every_ops=0)
    store = KeyValueStore(persistence)
    for i in range(5):
        store.hmset(f"k{i}", {"t": float(i)})

    entries = list(persistence.iter_ops())
    assert [entry[0] for entry in entries] == [1, 2, 3, 4, 5]
    assert all(entry[1] == "hmset" for entry in entries)

    tail = list(persistence.iter_ops(after_seq=3))
    assert [entry[0] for entry in tail] == [4, 5]
    assert tail == entries[3:]
    assert list(persistence.iter_ops(after_seq=5)) == []


def test_iter_ops_past_a_compaction_raises_the_gap(tmp_path):
    """A reader whose cursor a store compaction overtook gets both
    sequence numbers, not a silently short tail."""
    persistence = StorePersistence(str(tmp_path / "kv"), compact_every_ops=10)
    store = KeyValueStore(persistence)
    for i in range(25):
        store.rpush("l", i)
    assert [e[0] for e in persistence.iter_ops(after_seq=20)] == [21, 22, 23, 24, 25]
    with pytest.raises(JournalGapError) as gap:
        next(persistence.iter_ops(after_seq=5))
    assert (gap.value.after_seq, gap.value.base_seq) == (5, 20)


def test_load_snapshot_exposes_seq_and_state(tmp_path):
    d = str(tmp_path / "kv")
    persistence = StorePersistence(d, compact_every_ops=0)
    store = KeyValueStore(persistence)
    assert persistence.load_snapshot() is None  # nothing durable yet

    store.hmset("a", {"f": 1})
    persistence.compact(store)
    snapshot = persistence.load_snapshot()
    assert snapshot is not None
    assert snapshot["seq"] == 1
    assert snapshot["data"]["a"] == {"f": 1}
    # Ops after the snapshot are journal-only.
    store.hmset("b", {"f": 2})
    assert persistence.load_snapshot()["seq"] == 1
    assert [e[0] for e in persistence.iter_ops(after_seq=snapshot["seq"])] \
        == [2]


def test_load_snapshot_rejects_corruption(tmp_path):
    d = str(tmp_path / "kv")
    persistence = StorePersistence(d, compact_every_ops=0)
    store = KeyValueStore(persistence)
    store.hmset("a", {"f": 1})
    persistence.compact(store)
    with open(os.path.join(d, SNAPSHOT_FILE), "wb") as fh:
        fh.write(b"\x00garbage")
    with pytest.raises(CorruptPersistenceError):
        persistence.load_snapshot()
