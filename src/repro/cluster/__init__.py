"""Multi-node sharded actor runtime (the platform's Akka *cluster*).

The paper's deployment runs vessel/cell actors across nodes with Akka
cluster sharding: location-transparent refs, a shard coordinator, and
rebalancing on membership change (Section 3; the 170K-vessel run of
Section 6.3 rests on it). This package brings the same layer to the
reproduction:

* :mod:`~repro.cluster.transport` — byte-frame transports: a deterministic
  in-process loopback (tests pump the hub) and length-prefixed TCP whose
  reader threads only queue frames (real multi-process runs pump each
  node: :meth:`~repro.cluster.node.ClusterNode.pump`),
* :mod:`~repro.cluster.membership` — seed-node join, heartbeats, and the
  suspect -> down failure detector on an injectable clock,
* :mod:`~repro.cluster.sharding` — consistent-hash shards over a virtual
  node ring, the epoch-stamped shard table, and the location-transparent
  :class:`~repro.cluster.sharding.ShardRouter`,
* :mod:`~repro.cluster.node` — :class:`~repro.cluster.node.ClusterNode`
  tying one local :class:`~repro.actors.system.ActorSystem` to the wire,
  plus the leader-side :class:`~repro.cluster.node.ShardCoordinator`
  handling graceful handoff and buffered redelivery,
* :mod:`~repro.cluster.rebalance` — the telemetry-driven control loop:
  per-node load reports feed the leader's
  :class:`~repro.cluster.rebalance.Rebalancer`, whose minimal-move plans
  migrate hot shards (with live state transfer),
* :mod:`~repro.cluster.codec` — the closed struct wire codec: fixed
  layouts for the hot stream messages, one tagged value encoding for the
  rest of the ``repro.platform.messages`` and control vocabulary.

The platform-level assembly is :class:`repro.platform.Platform`
constructed with ``node=`` a :class:`ClusterNode`.
"""

from repro.cluster.clock import VirtualClock
from repro.cluster.membership import (
    ClusterConfig,
    Member,
    MemberState,
    Membership,
    MembershipEvent,
)
from repro.cluster.node import (
    ClusterNode,
    ShardCoordinator,
    run_cluster_until_idle,
)
from repro.cluster.protocol import WireEnvelope
from repro.cluster.rebalance import (
    Rebalancer,
    ShardMove,
    plan_rebalance,
)
from repro.cluster.sharding import (
    HashRing,
    ShardRouter,
    ShardTable,
    shard_for_key,
    stable_hash,
)
from repro.cluster.transport import (
    BatchingTransport,
    LoopbackHub,
    LoopbackTransport,
    TcpTransport,
    Transport,
    TransportError,
)

__all__ = [
    "BatchingTransport",
    "ClusterConfig",
    "ClusterNode",
    "HashRing",
    "LoopbackHub",
    "LoopbackTransport",
    "Member",
    "MemberState",
    "Membership",
    "MembershipEvent",
    "Rebalancer",
    "ShardCoordinator",
    "ShardMove",
    "ShardRouter",
    "ShardTable",
    "TcpTransport",
    "Transport",
    "TransportError",
    "VirtualClock",
    "WireEnvelope",
    "plan_rebalance",
    "run_cluster_until_idle",
    "shard_for_key",
    "stable_hash",
]
