"""Cluster-wide checkpointing for crash recovery.

A checkpoint is three things captured together at a quiescent moment:

* **consumer offsets** — the seed's committed offset per AIS partition, so
  recovery knows exactly which stream suffix is *not* covered by the
  checkpoint and must be replayed (:meth:`Consumer.seek`);
* **per-node KV snapshots** — each node's writer-actor output store,
  captured via :meth:`KeyValueStore.snapshot_state`;
* **per-entity state** — every vessel actor's :meth:`export_state` and
  every proximity and collision cell's ``cell_state``, keyed by ``(entity, router
  key)`` so recovery can route it through the normal sharded routers to
  whichever node owns the key after the restart
  (:class:`~repro.platform.messages.RestoreState`).

Recovery = restore KV + route entity state + replay only the suffix past
the checkpointed offsets — strictly less work than ``replay_from_start``
whenever the checkpoint had made any progress. Capture at a *quiescent*
boundary (mailboxes drained, writers flushed): in-flight messages are not
part of a checkpoint, the stream suffix re-creates them.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.kvstore.persistence import (
    FORMAT_VERSION,
    CorruptPersistenceError,
    _atomic_write,
)

if TYPE_CHECKING:
    from repro.platform.pipeline import Platform

CHECKPOINT_FILE = "checkpoint.pkl"

#: The sharded entity types whose actors carry recoverable state.
CHECKPOINTED_ENTITIES = ("vessel", "cell", "collision")


@dataclass
class NodeCheckpoint:
    """One node's share of a cluster checkpoint."""

    node_id: str
    kv_state: dict
    #: ``(entity, key, exported state)`` for every local entity.
    entities: list[tuple[str, Any, dict]] = field(default_factory=list)


@dataclass
class ClusterCheckpoint:
    """A point-in-time recovery anchor for the whole cluster."""

    version: int
    #: Stream (virtual) time the checkpoint was taken at.
    stream_time: float
    #: AIS partition -> committed offset at capture time.
    offsets: dict[int, int]
    nodes: list[NodeCheckpoint] = field(default_factory=list)

    @property
    def total_entities(self) -> int:
        return sum(len(n.entities) for n in self.nodes)

    def node(self, node_id: str) -> NodeCheckpoint | None:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        return None


def capture_node(platform: "Platform") -> NodeCheckpoint:
    """Snapshot one cluster node: KV store plus every local entity."""
    checkpoint = NodeCheckpoint(node_id=platform.node.node_id,
                                kv_state=platform.kvstore.snapshot_state())
    for entity in CHECKPOINTED_ENTITIES:
        router = platform.node.router(entity)
        for key in router.known_keys():
            # ShardRouter.export_state covers both entity actors and the
            # collision-cell table — the same exporter the live-migration
            # state transfer uses during handoff.
            state = router.export_state(key)
            if state is not None:
                checkpoint.entities.append((entity, key, state))
    return checkpoint


def capture_checkpoint(platforms: list["Platform"]) -> ClusterCheckpoint:
    """Capture every node plus the seed's committed stream offsets.

    ``platforms[0]`` must be the seed (it owns the broker and the
    platform consumer group's offsets).
    """
    seed = platforms[0]
    if not seed.is_seed:
        raise ValueError("platforms[0] must be the seed node")
    return ClusterCheckpoint(
        version=FORMAT_VERSION,
        stream_time=seed.system.now,
        offsets=seed.ingestion.committed_offsets(),
        nodes=[capture_node(p) for p in platforms])


def write_checkpoint(checkpoint: ClusterCheckpoint, directory: str) -> str:
    """Persist a checkpoint atomically; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, CHECKPOINT_FILE)
    _atomic_write(path, pickle.dumps(checkpoint,
                                     protocol=pickle.HIGHEST_PROTOCOL),
                  fsync=False)
    return path


def load_checkpoint(directory: str) -> ClusterCheckpoint:
    path = os.path.join(directory, CHECKPOINT_FILE)
    with open(path, "rb") as fh:
        checkpoint = pickle.load(fh)
    if checkpoint.version != FORMAT_VERSION:
        raise CorruptPersistenceError(f"checkpoint format {checkpoint.version!r} != "
                                      f"{FORMAT_VERSION}")
    return checkpoint
