"""Cluster membership and heartbeat-based failure detection.

State machine per member (a gossip-free subset of Akka cluster's):

``JOINING -> UP -> SUSPECT -> DOWN``

A member becomes SUSPECT after ``suspect_after_s`` without a heartbeat and
DOWN after ``down_after_s``; a heartbeat from a SUSPECT member restores it
to UP. DOWN is terminal for the *incarnation*: heartbeats from a downed
member are ignored (no split-brain resurrection), and the only way back in
is an explicit re-``Join`` — a restarted node may reuse its id, which
:meth:`Membership.add` records as a new incarnation.

Time is injected through a ``clock`` callable so deterministic tests drive
the detector from a virtual clock while TCP deployments use
``time.monotonic`` — the default. No code in this module may read the
``time`` module directly outside that default (virtual-time tests would
race); ``tests/cluster/test_virtual_clock.py`` enforces this.

Heartbeats and :meth:`Membership.check` both run on the thread that pumps
and ticks the node; every mutation and view still goes through one lock,
and observers (node stats, telemetry gauges, possibly on another thread)
read :meth:`Membership.snapshot`, which returns *copies* of the member records:
the same discipline the actor metrics ``snapshot()`` established, applied
to the membership dict instead of live references.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable


class MemberState(enum.Enum):
    JOINING = "joining"
    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


@dataclass
class Member:
    """One node's view of a peer."""

    node_id: str
    address: Any
    state: MemberState
    last_heartbeat: float
    #: Bumped each time a DOWN member re-joins under the same id (node
    #: restart); lets observers distinguish a revival from steady UP.
    incarnation: int = 0


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of membership, failure detection and sharding."""

    #: Seconds between outbound heartbeats.
    heartbeat_interval_s: float = 0.5
    #: Silence after which a member is suspected.
    suspect_after_s: float = 2.0
    #: Silence after which a suspect is declared down.
    down_after_s: float = 5.0
    #: Number of shards entity keys hash into (Akka's default is 1000;
    #: anything ≫ max node count gives smooth rebalancing).
    num_shards: int = 64
    #: Wrap the node's transport in a
    #: :class:`~repro.cluster.transport.BatchingTransport` (outbound
    #: per-peer micro-batching — the cross-node throughput knob).
    transport_batching: bool = False
    #: Longest a buffered frame may wait for peers before its batch is
    #: flushed (TCP mode; loopback flushes synchronously on pump).
    batch_linger_ms: float = 2.0
    #: Flush a peer's buffer once it holds this many bytes…
    max_batch_bytes: int = 64 * 1024
    #: …or this many frames, whichever comes first.
    max_batch_msgs: int = 128
    #: How often each node sends a :class:`~repro.cluster.protocol.LoadReport`
    #: window to the leader. <= 0 disables load reporting (and with it the
    #: rebalancer, which cannot plan blind).
    load_report_interval_s: float = 1.0
    #: Leader-side rebalance evaluation period. <= 0 disables live
    #: rebalancing entirely — the default, so the control loop is opt-in
    #: and a static cluster behaves exactly as before.
    rebalance_interval_s: float = 0.0
    #: Skip planning when the whole window saw fewer messages than this
    #: (idle-cluster noise must not cause migrations).
    rebalance_min_messages: int = 32

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.heartbeat_interval_s <= 0:
            # LoopbackCluster.tick steps the clock by this interval.
            raise ValueError("heartbeat_interval_s must be positive")
        if not (0 < self.suspect_after_s <= self.down_after_s):
            raise ValueError("need 0 < suspect_after_s <= down_after_s")
        if self.max_batch_msgs < 1:
            raise ValueError("max_batch_msgs must be >= 1")


@dataclass(frozen=True)
class MembershipEvent:
    """A state transition observed by the failure detector."""

    node_id: str
    state: MemberState


class Membership:
    """This node's registry of cluster members (itself included)."""

    def __init__(
        self,
        node_id: str,
        address: Any,
        config: ClusterConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.node_id = node_id
        self.config = config or ClusterConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._members: dict[str, Member] = {
            node_id: Member(node_id, address, MemberState.UP, clock()),
        }
        #: Members evacuating their shards: still alive (they heartbeat
        #: and route) but excluded from shard assignment. Cleared when the
        #: member goes DOWN or re-joins.
        self._draining: set[str] = set()

    # -- views ---------------------------------------------------------------------
    #
    # Every view copies under the lock: TCP reader threads mutate member
    # records concurrently, so handing out live references would let an
    # observer see a member mid-transition (or race a dict resize).

    def snapshot(self) -> list[Member]:
        """A point-in-time copy of every member record, sorted by id.

        The canonical read path for observers — node ``stats()`` and the
        telemetry heartbeat gauges derive everything from this instead of
        touching the live dict.
        """
        with self._lock:
            return sorted((replace(m) for m in self._members.values()), key=lambda m: m.node_id)

    def members(self) -> list[Member]:
        return self.snapshot()

    def get(self, node_id: str) -> Member | None:
        with self._lock:
            member = self._members.get(node_id)
            return None if member is None else replace(member)

    def state_of(self, node_id: str) -> MemberState | None:
        """Just a member's state, without the record copy :meth:`get`
        pays — the per-message shard-routing check uses this."""
        with self._lock:
            member = self._members.get(node_id)
            return None if member is None else member.state

    def alive_ids(self) -> list[str]:
        """Members counted for shard ownership: UP and SUSPECT (suspicion
        alone must not reshuffle shards — only a DOWN declaration does)."""
        with self._lock:
            return sorted(
                m.node_id
                for m in self._members.values()
                if m.state in (MemberState.UP, MemberState.SUSPECT)
            )

    def draining_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._draining)

    def assignable_ids(self) -> list[str]:
        """Alive members eligible to own shards: :meth:`alive_ids` minus
        the draining set. Falls back to the full alive set if draining
        would leave nobody to own shards (the last node cannot drain)."""
        draining = self.draining_ids()
        alive = self.alive_ids()
        assignable = [n for n in alive if n not in draining]
        return assignable or alive

    def peer_ids(self) -> list[str]:
        """Every non-self member that is not DOWN (heartbeat targets)."""
        with self._lock:
            return sorted(
                m.node_id
                for m in self._members.values()
                if m.node_id != self.node_id and m.state is not MemberState.DOWN
            )

    def state_counts(self) -> dict[str, int]:
        """``state value -> member count`` (telemetry gauge payload)."""
        counts = {state.value: 0 for state in MemberState}
        with self._lock:
            for member in self._members.values():
                counts[member.state.value] += 1
        return counts

    def leader(self) -> str:
        """The coordinator node: lowest id among alive members (stable,
        deterministic, recomputed identically on every node)."""
        alive = self.alive_ids()
        return alive[0] if alive else self.node_id

    def is_leader(self) -> bool:
        return self.leader() == self.node_id

    # -- mutations -----------------------------------------------------------------

    def add(self, node_id: str, address: Any) -> bool:
        """Admit (or refresh) a member as UP; returns True if the alive set
        changed. Re-admitting a DOWN member (a node restarted under the
        same id) starts a new incarnation."""
        now = self.clock()
        with self._lock:
            member = self._members.get(node_id)
            if member is None:
                self._members[node_id] = Member(node_id, address, MemberState.UP, now)
                return True
            member.address = address
            self._draining.discard(node_id)
            if member.state is not MemberState.UP:
                # Only a state change stamps the heartbeat timer: an ``add``
                # of an already-UP member (leader anti-entropy re-broadcasts)
                # must not keep a silent node looking alive.
                member.last_heartbeat = now
                changed = member.state is MemberState.DOWN
                if changed:
                    member.incarnation += 1
                member.state = MemberState.UP
                return changed
            return False

    def heartbeat(self, node_id: str) -> bool:
        """Record a heartbeat; returns True if it revived a SUSPECT."""
        now = self.clock()
        with self._lock:
            member = self._members.get(node_id)
            if member is None or member.state is MemberState.DOWN:
                return False
            member.last_heartbeat = now
            if member.state is MemberState.SUSPECT:
                member.state = MemberState.UP
                return True
            return False

    def mark_down(self, node_id: str) -> bool:
        with self._lock:
            self._draining.discard(node_id)
            member = self._members.get(node_id)
            if member is None or member.state is MemberState.DOWN:
                return False
            member.state = MemberState.DOWN
            return True

    def mark_draining(self, node_id: str) -> bool:
        """Flag a member as evacuating; returns True if this is news.
        Draining is not a :class:`MemberState` — the member stays UP for
        failure detection and message routing; only shard assignment
        (:meth:`assignable_ids`) treats it as gone."""
        with self._lock:
            member = self._members.get(node_id)
            if member is None or member.state is MemberState.DOWN or node_id in self._draining:
                return False
            self._draining.add(node_id)
            return True

    def remove(self, node_id: str) -> None:
        if node_id != self.node_id:
            with self._lock:
                self._members.pop(node_id, None)
                self._draining.discard(node_id)

    def check(self) -> list[MembershipEvent]:
        """Run the failure detector; returns the transitions it performed."""
        now = self.clock()
        events: list[MembershipEvent] = []
        with self._lock:
            for member in self._members.values():
                if member.node_id == self.node_id:
                    continue
                silence = now - member.last_heartbeat
                if member.state is MemberState.UP and silence >= self.config.suspect_after_s:
                    member.state = MemberState.SUSPECT
                    events.append(MembershipEvent(member.node_id, MemberState.SUSPECT))
                if member.state is MemberState.SUSPECT and silence >= self.config.down_after_s:
                    member.state = MemberState.DOWN
                    self._draining.discard(member.node_id)
                    events.append(MembershipEvent(member.node_id, MemberState.DOWN))
        return events
