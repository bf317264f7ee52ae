"""Redis-style durability for the key-value store.

Two files in a directory give the store the same recovery story Redis
gets from AOF + RDB:

* ``journal.log`` — an append-only op journal. A version header frame is
  followed by every mutating command, serialized (pickle-framed,
  sequence-numbered) as it executes, so the tail of history since the
  last snapshot is always on disk.
* ``snapshot.pkl`` — a point-in-time snapshot of the full store state,
  written by *compaction* (explicit :meth:`StorePersistence.compact` or
  automatically every ``compact_every_ops`` journaled ops).

Recovery (:meth:`StorePersistence.restore_into`) loads the snapshot and
replays only the journal entries newer than it. Entries are sequence
numbered and the snapshot records the last sequence it contains, so a
crash *between* writing the snapshot and truncating the journal is safe:
stale entries (seq <= snapshot seq) are skipped on replay, which keeps
non-idempotent ops (``rpush``) from double-applying. The snapshot itself
is written to a temp file and atomically renamed.

The journal stores public-method calls ``(seq, op, args, kwargs)`` and
replay simply re-invokes them, so the journal format never drifts from
the store's semantics. No command reads a clock, so replay is
deterministic. Both files carry :data:`FORMAT_VERSION`; a file of another
version raises :class:`CorruptPersistenceError` before anything is
replayed.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.kvstore.store import KeyValueStore

SNAPSHOT_FILE = "snapshot.pkl"
JOURNAL_FILE = "journal.log"

#: Snapshot/journal/checkpoint format version, bumped on incompatible
#: layout change (2: commands no longer carry a clock, no key expires).
FORMAT_VERSION = 2


class CorruptPersistenceError(RuntimeError):
    """A snapshot or journal file could not be decoded, or has another
    :data:`FORMAT_VERSION`."""


class JournalGapError(RuntimeError):
    """The journal no longer holds the ops right after a reader's cursor:
    a store compaction folded ops ``after_seq + 1 .. base_seq`` into the
    snapshot and truncated them away."""

    def __init__(self, after_seq: int, base_seq: int) -> None:
        super().__init__(
            f"journal starts after seq {base_seq}, past the reader's cursor {after_seq}: "
            f"ops {after_seq + 1}..{base_seq} are only in the snapshot"
        )
        self.after_seq = after_seq
        self.base_seq = base_seq


def _atomic_write(path: str, payload: bytes, fsync: bool) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_frame(fh) -> Any:
    """The next pickle frame, or None at the end of the file or at a torn
    tail frame (crash mid-append)."""
    try:
        return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError, AttributeError, ValueError):
        return None


class OpJournal:
    """The append-only op log: a header frame ``{"version", "base_seq"}``,
    then pickle frames of ``(seq, op, args, kwargs)`` with ``seq >
    base_seq`` (``base_seq`` is the snapshot the last truncation left).

    A torn final frame (crash mid-append) is tolerated: replay stops at
    the first undecodable frame instead of failing recovery.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._fh = open(path, "ab")
        if os.fstat(self._fh.fileno()).st_size == 0:
            self._write_header(0)

    def _write_header(self, base_seq: int) -> None:
        self._write({"version": FORMAT_VERSION, "base_seq": base_seq})

    def _write(self, frame: Any) -> None:
        pickle.dump(frame, self._fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._fh.flush()  # every op reaches the OS before the call returns
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append(self, seq: int, op: str, args: tuple) -> None:
        self._write((seq, op, args, {}))

    def entries(self, after_seq: int = 0) -> Iterator[tuple[int, str, tuple, dict]]:
        """Entries strictly newer than ``after_seq``, oldest first.

        Raises :class:`CorruptPersistenceError` for a journal of another
        format and :class:`JournalGapError` when the journal starts past
        ``after_seq``; both before the first entry is yielded."""
        self._fh.flush()
        with open(self.path, "rb") as fh:
            header = _load_frame(fh)
            if header is None:
                return
            version = header.get("version") if isinstance(header, dict) else None
            if version != FORMAT_VERSION:
                raise CorruptPersistenceError(
                    f"journal {self.path} format {version!r} != {FORMAT_VERSION}"
                )
            if header["base_seq"] > after_seq:
                raise JournalGapError(after_seq, header["base_seq"])
            while (entry := _load_frame(fh)) is not None:
                if entry[0] > after_seq:
                    yield entry

    def truncate(self, base_seq: int) -> None:
        """Drop every entry (called after a snapshot covering ``base_seq``
        made them redundant)."""
        self._fh.close()
        self._fh = open(self.path, "wb")
        self._write_header(base_seq)

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()


class StorePersistence:
    """Directory-backed journal + snapshot pair for one store.

    Attach with ``KeyValueStore(persistence=...)`` or
    :meth:`KeyValueStore.bind_persistence`; binding restores any existing
    on-disk state first, then journals every subsequent mutation.
    """

    def __init__(
        self, directory: str, compact_every_ops: int = 10_000, fsync: bool = False
    ) -> None:
        if compact_every_ops < 0:
            raise ValueError("compact_every_ops must be non-negative")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.compact_every_ops = compact_every_ops
        self.fsync = fsync
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILE)
        self.journal = OpJournal(os.path.join(directory, JOURNAL_FILE), fsync=fsync)
        self._lock = threading.RLock()
        #: Monotonic sequence of the last journaled/snapshotted op.
        self._seq = 0
        #: Ops journaled since the last compaction.
        self._ops_since_compact = 0
        self.compactions = 0
        self.ops_journaled = 0

    @property
    def seq(self) -> int:
        return self._seq

    # -- write path -------------------------------------------------------------

    def record(self, store: "KeyValueStore", op: str, args: tuple) -> None:
        """Journal one mutating op (called by the store, under its lock)."""
        with self._lock:
            self._seq += 1
            self.journal.append(self._seq, op, args)
            self.ops_journaled += 1
            self._ops_since_compact += 1
            if self.compact_every_ops and self._ops_since_compact >= self.compact_every_ops:
                self.compact(store)

    def compact(self, store: "KeyValueStore") -> None:
        """Fold the journal into a fresh snapshot and truncate it.

        Ordering is crash-safe: the snapshot (stamped with the journal's
        last sequence) lands atomically *before* the journal is truncated,
        so the worst a crash in between can leave is a journal whose
        entries are all older than the snapshot — skipped on restore.
        """
        with self._lock:
            state = store.snapshot_state()
            payload = pickle.dumps(
                {"version": FORMAT_VERSION, "seq": self._seq, **state},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            _atomic_write(self.snapshot_path, payload, self.fsync)
            self.journal.truncate(self._seq)
            self._ops_since_compact = 0
            self.compactions += 1

    # -- read path (analytics consumers) ----------------------------------------

    def load_snapshot(self) -> dict[str, Any] | None:
        """Decode the on-disk snapshot without a store (``None`` if absent).

        Readers that bootstrap from a checkpoint — e.g. the warehouse
        compactor after the journal was compacted away — get the snapshot
        dict including its ``seq`` stamp, then tail
        :meth:`iter_ops` from that stamp.
        """
        with self._lock:
            if not os.path.exists(self.snapshot_path):
                return None
            with open(self.snapshot_path, "rb") as fh:
                try:
                    snapshot = pickle.load(fh)
                except (pickle.UnpicklingError, EOFError) as exc:
                    raise CorruptPersistenceError(
                        f"unreadable snapshot {self.snapshot_path}"
                    ) from exc
            if snapshot.get("version") != FORMAT_VERSION:
                raise CorruptPersistenceError(
                    f"snapshot format {snapshot.get('version')!r} != {FORMAT_VERSION}"
                )
            return snapshot

    def iter_ops(self, after_seq: int = 0) -> Iterator[tuple[int, str, tuple, dict]]:
        """Journal entries with ``seq > after_seq``, oldest first.

        This is the journal-iteration API downstream consumers tail; it
        never mutates persistence state, so it is safe to call while the
        store keeps journaling (entries appended after the iterator's
        snapshot of the file simply appear on the next call). A reader
        whose cursor a store compaction overtook gets
        :class:`JournalGapError` instead of a silently short tail.
        """
        return self.journal.entries(after_seq)

    # -- recovery ---------------------------------------------------------------

    def restore_into(self, store: "KeyValueStore") -> int:
        """Load snapshot + journal tail into ``store``; returns the number
        of journal ops replayed. The store must not be journaling to this
        persistence yet (binding order is handled by
        :meth:`KeyValueStore.bind_persistence`)."""
        with self._lock:
            snapshot = self.load_snapshot()
            last_seq = 0
            if snapshot is not None:
                last_seq = snapshot["seq"]
                store.restore_state(snapshot)
            replayed = 0
            for seq, op, args, kwargs in self.journal.entries(last_seq):
                getattr(store, op)(*args, **kwargs)
                last_seq = seq
                replayed += 1
            self._seq = max(self._seq, last_seq)
            return replayed

    def close(self) -> None:
        self.journal.close()
