"""The cluster wire vocabulary.

Exactly one frame type crosses the transport — :class:`WireEnvelope`. A
``"sharded"`` frame's ``message`` is always a :class:`ShardedBatch` of
entity messages; any other frame's is a control message below, a
:class:`ControlRequest` or its answer (a value built from the closed
vocabulary of :mod:`repro.cluster.codec`); a type the codec does not list
cannot be sent. Control messages implement the seed-node join protocol,
heartbeating, the shard table broadcast and node shutdown; they are
deliberately gossip-free — the coordinator (cluster leader) is the single
writer of the shard table, as in Akka cluster sharding's coordinator
singleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class WireEnvelope:
    """One frame on the wire.

    ``kind`` selects the delivery path on the receiving node:

    * ``"sharded"`` — ``message`` is a :class:`ShardedBatch`; each entry is
      routed to its entity actor (spawned if needed).
    * ``"ask"`` / ``"reply"`` — a :class:`ControlRequest` for a node-level
      handler and its answer, correlated by ``corr_id``.
    * ``"control"`` — handled by the node itself (membership & sharding).

    Entity messages carry no sender: actors are addressed by entity key
    only, and a reply travels only as the answer to a control ask.
    """

    kind: str
    src: str
    message: Any = None
    corr_id: int | None = None


#: Forwarding bound for sharded messages routed with a stale table.
MAX_HOPS = 3


@dataclass(frozen=True)
class ShardedBatch:
    """The sharded messages one node routes to one peer during one burst
    of work, in send order: the message of every ``"sharded"`` frame (a
    message sent alone, a forward or a redelivery is a one-entry batch).

    Each entry is ``(entity, key, message, hops, trace_id)``: the entity
    actor and key it is routed to, how often a node with a stale table
    forwarded it (at most ``MAX_HOPS`` times), and the telemetry trace it
    belongs to (sampled; usually None), so traces survive node
    boundaries."""

    entries: tuple[tuple[str | None, Any, Any, int, int | None], ...]


# -- membership control ------------------------------------------------------------


@dataclass(frozen=True)
class Join:
    """New node -> seed: request admission to the cluster."""

    node_id: str
    address: Any


@dataclass(frozen=True)
class Welcome:
    """Seed -> new node: the current membership and shard table."""

    members: tuple[tuple[str, Any], ...]  #: ``(node_id, address)`` pairs
    table_epoch: int
    table_nodes: tuple[str, ...]
    #: Rebalance overrides of the current table (``(shard, owner)`` pairs).
    #: Defaults keep pre-rebalance peers wire-compatible.
    table_overrides: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class MemberUp:
    """Seed -> everyone: a node was admitted."""

    node_id: str
    address: Any


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness signal (also refreshes SUSPECT back to UP)."""

    node_id: str


@dataclass(frozen=True)
class Leave:
    """Graceful departure announcement (shards hand off immediately)."""

    node_id: str


@dataclass(frozen=True)
class ShardTableUpdate:
    """Coordinator -> everyone: install shard table ``epoch`` computed over
    ``nodes`` (every node derives the identical assignment from the node
    list via the shared consistent-hash ring). ``overrides`` layers the
    rebalancer's explicit ``shard -> owner`` moves on top of the derived
    ring assignment; receivers apply them after deriving, so the update
    stays a compact description rather than a 64-entry table dump."""

    epoch: int
    nodes: tuple[str, ...]
    overrides: tuple[tuple[int, str], ...] = ()


# -- load telemetry & rebalancing ---------------------------------------------------


@dataclass(frozen=True)
class LoadReport:
    """Node -> leader: one load-telemetry window, sent on the heartbeat
    cadence (``load_report_interval_s``). Counters are *deltas* since the
    node's previous report, so the leader can window them without clock
    coordination; gauges (mailbox depth, consumer lag, entity count) are
    instantaneous."""

    node_id: str
    #: Sum of queued messages across local actor mailboxes at report time.
    mailbox_depth: int
    #: Broker consumer lag (seed node only; 0 elsewhere).
    consumer_lag: int
    #: Actor processing time spent since the previous report, from the
    #: telemetry dispatch recorder (milliseconds; 0.0 without telemetry).
    busy_ms: float
    #: Locally hosted entity actors at report time.
    entities: int
    #: ``(shard, messages delivered locally since the previous report)``.
    shard_messages: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class MigrationPlan:
    """Leader -> everyone: the move list that shard table ``epoch``
    executes, for observability and the sim harness's migration
    accounting. The authoritative assignment travels separately in the
    :class:`ShardTableUpdate` carrying the matching overrides."""

    epoch: int
    #: ``(shard, from_node, to_node)`` triples.
    moves: tuple[tuple[int, str, str], ...]


@dataclass(frozen=True)
class Draining:
    """Node -> everyone: this node is evacuating — assign it no shards.
    Unlike :class:`Leave`, the node stays UP (and keeps heartbeating)
    until its shards and their state have migrated off."""

    node_id: str


@dataclass(frozen=True)
class ShardStateTransfer:
    """Departing owner -> new owner: exported entity state of keys leaving
    with a live handoff, so the new owner resumes from the old owner's
    actor state instead of an empty actor plus history replay. Entries are
    applied through the receiving node's sharded routers as
    ``RestoreState`` messages; adopt-if-newer guards make late or
    duplicated transfers safe."""

    shard: int
    epoch: int
    #: ``(entity, key, exported state)`` triples.
    entries: tuple[tuple[str, Any, dict], ...]


@dataclass(frozen=True)
class ControlRequest:
    """Ask-pattern control message dispatched to a node-level handler
    registered with :meth:`ClusterNode.register_control`."""

    op: str
    params: dict = field(default_factory=dict)
