"""The broker: topics, partitions and offset bookkeeping."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Record:
    """One record in a partition log."""

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any
    timestamp: float


@dataclass(frozen=True)
class TopicConfig:
    """Creation-time topic settings."""

    name: str
    num_partitions: int = 4
    #: Retain at most this many records per partition (0 = unbounded).
    #: Old records are truncated from the head, like Kafka size retention.
    retention_per_partition: int = 0

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.retention_per_partition < 0:
            raise ValueError("retention must be non-negative")


class _Partition:
    """A single append-only log with head truncation."""

    def __init__(self, topic: str, index: int, retention: int) -> None:
        self.topic = topic
        self.index = index
        self.retention = retention
        self._records: list[Record] = []
        #: Offset of the first retained record (grows with truncation).
        self.log_start_offset = 0
        self.next_offset = 0

    def append(self, key: Any, value: Any, timestamp: float) -> int:
        offset = self.next_offset
        self._records.append(Record(topic=self.topic, partition=self.index,
                                    offset=offset, key=key, value=value,
                                    timestamp=timestamp))
        self.next_offset += 1
        if self.retention and len(self._records) > self.retention:
            drop = len(self._records) - self.retention
            del self._records[:drop]
            self.log_start_offset += drop
        return offset

    def read_into(self, from_offset: int, max_records: int,
                  out: list[Record]) -> int:
        """Append up to ``max_records`` records to ``out``; returns how
        many were appended. Poll-per-tick consumers pass a reusable
        buffer, so no fresh result list is allocated under the coarse
        broker lock on every fetch."""
        start = max(from_offset, self.log_start_offset) - self.log_start_offset
        if start >= len(self._records):
            return 0
        stop = min(start + max_records, len(self._records))
        if start == 0 and stop == len(self._records):
            out.extend(self._records)   # catch-up case: no slice temp
        else:
            out.extend(self._records[start:stop])
        return stop - start

    def __len__(self) -> int:
        return len(self._records)


#: Bound lazily so importing the streams layer never pulls the cluster
#: package in at module load (the dependency is one pure hash function).
_stable_hash = None


def _key_hash(key: Any) -> int:
    global _stable_hash
    if _stable_hash is None:
        from repro.cluster.sharding import stable_hash
        _stable_hash = stable_hash
    return _stable_hash(key)


class Broker:
    """Thread-safe in-memory message broker.

    All state lives in this object; producers and consumers are thin handles
    onto it. Locking is coarse (one lock per broker) — adequate because the
    platform's hot path batches reads.
    """

    #: Clear the key -> partition memo past this many distinct keys.
    _PARTITION_CACHE_MAX = 1 << 20

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._topics: dict[str, list[_Partition]] = {}
        self._configs: dict[str, TopicConfig] = {}
        #: (group, topic, partition) -> committed offset (next to consume).
        self._commits: dict[tuple[str, str, int], int] = {}
        #: (topic, key) -> partition memo (stable_hash is pure, keys — MMSIs
        #: mostly — recur every tick; bounded, cleared when it overflows).
        self._partition_cache: dict[tuple[str, Any], int] = {}

    # -- topic management ----------------------------------------------------

    def create_topic(self, config: TopicConfig) -> None:
        with self._lock:
            if config.name in self._topics:
                raise ValueError(f"topic {config.name!r} already exists")
            self._topics[config.name] = [
                _Partition(config.name, i, config.retention_per_partition)
                for i in range(config.num_partitions)]
            self._configs[config.name] = config

    def topic_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._topics

    def topics(self) -> list[str]:
        with self._lock:
            return sorted(self._topics)

    def num_partitions(self, topic: str) -> int:
        with self._lock:
            return len(self._partitions(topic))

    def _partitions(self, topic: str) -> list[_Partition]:
        try:
            return self._topics[topic]
        except KeyError:
            raise KeyError(f"unknown topic {topic!r}") from None

    # -- produce / fetch -------------------------------------------------------

    def partition_for_key(self, topic: str, key: Any) -> int:
        """Deterministic key -> partition mapping (hash partitioner).

        Routes through the cluster's process-independent ``stable_hash``:
        the builtin ``hash`` is randomised per process for strings
        (``PYTHONHASHSEED``), which would scatter a replayed NMEA topic
        across different partitions on every run.
        """
        if key is None:
            raise ValueError("records need a key for partition routing")
        cache_key = (topic, key)
        try:
            return self._partition_cache[cache_key]
        except KeyError:
            pass
        except TypeError:       # unhashable key: no memoisation
            with self._lock:
                n = len(self._partitions(topic))
            return _key_hash(key) % n
        with self._lock:
            n = len(self._partitions(topic))
        partition = _key_hash(key) % n
        if len(self._partition_cache) >= self._PARTITION_CACHE_MAX:
            self._partition_cache.clear()
        self._partition_cache[cache_key] = partition
        return partition

    def append(self, topic: str, key: Any, value: Any, timestamp: float,
               partition: int | None = None) -> tuple[int, int]:
        """Append a record; returns ``(partition, offset)``."""
        with self._lock:
            parts = self._partitions(topic)
            if partition is None:
                partition = self.partition_for_key(topic, key)
            if not 0 <= partition < len(parts):
                raise ValueError(
                    f"partition {partition} out of range for {topic!r}")
            offset = parts[partition].append(key, value, timestamp)
            return partition, offset

    def fetch(self, topic: str, partition: int, from_offset: int,
              max_records: int = 500) -> list[Record]:
        out: list[Record] = []
        self.fetch_into(topic, partition, from_offset, max_records, out)
        return out

    def fetch_into(self, topic: str, partition: int, from_offset: int,
                   max_records: int, out: list[Record]) -> int:
        """Append up to ``max_records`` records to the caller's reusable
        ``out`` buffer; returns the count appended (see
        :meth:`_Partition.read_into`)."""
        with self._lock:
            parts = self._partitions(topic)
            return parts[partition].read_into(from_offset, max_records, out)

    def end_offset(self, topic: str, partition: int) -> int:
        """Offset one past the last record (the produce position)."""
        with self._lock:
            return self._partitions(topic)[partition].next_offset

    def total_records(self, topic: str) -> int:
        """Total records currently retained across partitions."""
        with self._lock:
            return sum(len(p) for p in self._partitions(topic))

    # -- consumer-group offsets -------------------------------------------------

    def committed(self, group: str, topic: str, partition: int) -> int:
        with self._lock:
            return self._commits.get((group, topic, partition), 0)

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        with self._lock:
            key = (group, topic, partition)
            if offset < self._commits.get(key, 0):
                raise ValueError(
                    f"cannot move commit backwards for {key}: {offset}")
            self._commits[key] = offset

    def lag(self, group: str, topic: str) -> int:
        """Total uncommitted records for a group on a topic."""
        with self._lock:
            return sum(
                p.next_offset - self._commits.get((group, topic, p.index), 0)
                for p in self._partitions(topic))
