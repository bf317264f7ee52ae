"""An in-memory key-value store (the platform's Redis substitute).

The writer actor persists actor states here and the middleware API reads
them back for the UI (Section 3). The store supports the Redis surface the
platform touches: hashes, lists, sorted sets and pub/sub channels — all
thread-safe on one coarse lock.

Durability (opt-in) lives in :mod:`repro.kvstore.persistence`: an
append-only op journal compacted into snapshot files, Redis AOF/RDB
style. See PERSISTENCE.md for the formats and recovery semantics.
"""

from repro.kvstore.store import KeyValueStore, WrongTypeError
from repro.kvstore.persistence import (
    CorruptPersistenceError,
    JournalGapError,
    OpJournal,
    StorePersistence,
)
from repro.kvstore.pubsub import PubSub, Subscription

__all__ = [
    "CorruptPersistenceError",
    "JournalGapError",
    "KeyValueStore",
    "OpJournal",
    "PubSub",
    "StorePersistence",
    "Subscription",
    "WrongTypeError",
]
