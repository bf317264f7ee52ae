"""Typed key-value store: hashes, lists and sorted sets.

Commands mirror the small Redis subset the platform calls: the writer and
the read replica write with HMSET/RPUSH/LTRIM/ZADD, and the middleware API
reads with HGETALL/LRANGE/LLEN/ZCARD/ZRANGEBYSCORE. Nothing expires, so no
command takes a clock.

Durability is optional: bind a
:class:`~repro.kvstore.persistence.StorePersistence` and every mutating
command is appended to an op journal, periodically compacted into a
snapshot file (see ``persistence.py`` / PERSISTENCE.md).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.kvstore.persistence import StorePersistence


class WrongTypeError(TypeError):
    """Raised when a command targets a key holding another value type
    (Redis's ``WRONGTYPE`` error)."""


def _copy_value(value: Any) -> Any:
    """Shallow-copy a stored container so snapshots never alias live state."""
    return dict(value) if isinstance(value, dict) else list(value)


def _index_range(start: int, stop: int, n: int) -> slice:
    """Redis inclusive index semantics (-1 = last element) as a slice."""
    if start < 0:
        start += n
    if stop < 0:
        stop += n
    return slice(max(start, 0), stop + 1)


class KeyValueStore:
    """Thread-safe in-memory store with hashes, lists and zsets."""

    def __init__(self, persistence: "StorePersistence | None" = None) -> None:
        self._lock = threading.RLock()
        self._data: dict[str, Any] = {}
        self._persistence: "StorePersistence | None" = None
        if persistence is not None:
            self.bind_persistence(persistence)

    # -- durability --------------------------------------------------------------

    def bind_persistence(self, persistence: "StorePersistence") -> int:
        """Restore any on-disk state, then journal every later mutation.
        Returns the number of journal ops replayed during restore."""
        with self._lock:
            self._persistence = None  # replay must not re-journal
            replayed = persistence.restore_into(self)
            self._persistence = persistence
            return replayed

    @property
    def persistence(self) -> "StorePersistence | None":
        return self._persistence

    def _journal(self, op: str, *args: Any) -> None:
        """Record one mutating op (no-op unless persistence is bound).
        Always called with the store lock held, *after* the mutation
        succeeded — failed commands (wrong type) are never journaled."""
        if self._persistence is not None:
            self._persistence.record(self, op, args)

    def snapshot_state(self) -> dict[str, Any]:
        """The full store state as a plain dict (for snapshots/transfer).
        Two stores are behaviourally equivalent iff their snapshots match."""
        with self._lock:
            return {"data": {k: _copy_value(v) for k, v in self._data.items()}}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Replace the store contents with a :meth:`snapshot_state` dict."""
        with self._lock:
            self._data = {k: _copy_value(v) for k, v in state["data"].items()}

    def merge_state(self, state: dict[str, Any]) -> int:
        """Fold another store's :meth:`snapshot_state` into this one.

        Used when a node retires gracefully and a surviving peer absorbs
        its durably written outputs: lists append, and hash/zset members
        fill in only where this store has no entry for the field (the
        absorber's own rows are at least as new — post-migration writes
        land here). Runs through the public commands so a bound journal
        stays coherent. Returns the number of keys merged.
        """
        merged = 0
        for key, value in state["data"].items():
            if isinstance(value, list):
                if value:
                    self.rpush(key, *value)
                    merged += 1
                continue
            with self._lock:
                current = self._typed(key, dict, create=False) or {}
                fresh = {f: v for f, v in value.items() if f not in current}
            if fresh:
                self.hmset(key, fresh)
                merged += 1
        return merged

    # -- helpers -----------------------------------------------------------------

    def _typed(self, key: str, expect: type, create: bool) -> Any:
        value = self._data.get(key)
        if value is None:
            if not create:
                return None
            value = expect()
            self._data[key] = value
        elif not isinstance(value, expect):
            raise WrongTypeError(
                f"key {key!r} holds {type(value).__name__}, expected {expect.__name__}"
            )
        return value

    # -- hashes -------------------------------------------------------------------

    def hmset(self, key: str, mapping: dict[str, Any]) -> None:
        with self._lock:
            self._typed(key, dict, create=True).update(mapping)
            self._journal("hmset", key, dict(mapping))

    def hgetall(self, key: str) -> dict[str, Any]:
        with self._lock:
            h = self._typed(key, dict, create=False)
            return {} if h is None else dict(h)

    # -- lists --------------------------------------------------------------------

    def rpush(self, key: str, *values: Any) -> int:
        with self._lock:
            lst = self._typed(key, list, create=True)
            lst.extend(values)
            self._journal("rpush", key, *values)
            return len(lst)

    def lrange(self, key: str, start: int, stop: int) -> list:
        """Inclusive range with Redis index semantics (-1 = last element)."""
        with self._lock:
            lst = self._typed(key, list, create=False)
            return [] if lst is None else lst[_index_range(start, stop, len(lst))]

    def llen(self, key: str) -> int:
        with self._lock:
            lst = self._typed(key, list, create=False)
            return 0 if lst is None else len(lst)

    def ltrim(self, key: str, start: int, stop: int) -> None:
        with self._lock:
            lst = self._typed(key, list, create=False)
            if lst is None:
                return
            # Journal the caller's indices: normalized ones (e.g. a stop
            # clamped to -1) would be re-normalized on replay.
            self._journal("ltrim", key, start, stop)
            lst[:] = lst[_index_range(start, stop, len(lst))]

    # -- sorted sets -----------------------------------------------------------------

    def zadd(self, key: str, score: float, member: str) -> None:
        with self._lock:
            self._typed(key, dict, create=True)[member] = float(score)
            self._journal("zadd", key, float(score), member)

    def zcard(self, key: str) -> int:
        with self._lock:
            z = self._typed(key, dict, create=False)
            return 0 if z is None else len(z)

    def zrangebyscore(self, key: str, lo: float, hi: float) -> list[tuple[str, float]]:
        """Members with ``lo <= score <= hi``, ordered by (score, member)."""
        with self._lock:
            z = self._typed(key, dict, create=False)
            if z is None:
                return []
            return sorted(
                ((m, s) for m, s in z.items() if lo <= s <= hi), key=lambda kv: (kv[1], kv[0])
            )
