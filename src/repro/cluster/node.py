"""The cluster node: one ActorSystem + transport + membership + shards.

A :class:`ClusterNode` is the multi-node analogue of a bare
:class:`~repro.actors.system.ActorSystem`: it owns a local system, speaks
:class:`~repro.cluster.protocol.WireEnvelope` frames over a
:class:`~repro.cluster.transport.Transport`, runs the heartbeat failure
detector, and — when it is the cluster leader — acts as the
:class:`ShardCoordinator` that assigns consistent-hash shards to nodes and
orchestrates handoff when membership changes.

Delivery guarantees (the documented in-flight window): messages routed to
a shard are buffered and redelivered whenever the owner is unreachable or
unknown; what can be lost is only what a crashed node had already accepted
into its mailboxes, plus TCP frames written to a socket whose peer died
before reading them. The platform layer narrows that window further by
replaying the AIS topic from committed offsets after a node loss.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Iterable

from repro.actors.actor import ActorRef, Envelope
from repro.actors.system import ActorSystem, Future
from repro.cluster import codec
from repro.cluster.membership import (
    ClusterConfig,
    Membership,
    MembershipEvent,
    MemberState,
)
from repro.cluster.protocol import (
    MAX_HOPS,
    ControlRequest,
    Draining,
    Heartbeat,
    Join,
    Leave,
    LoadReport,
    MemberDown,
    MemberUp,
    MigrationPlan,
    ShardStateTransfer,
    ShardTableUpdate,
    Welcome,
    WireEnvelope,
)
from repro.cluster.rebalance import Rebalancer
from repro.cluster.remote import RemoteActorRef, ReplyRelay
from repro.cluster.sharding import ShardRouter, ShardTable, shard_for_key
from repro.cluster.transport import (
    BatchingTransport,
    Transport,
    TransportError,
)
from repro.telemetry import Telemetry
from repro.telemetry.trace import (
    clear_current_trace,
    current_trace,
    set_current_trace,
)


#: Leader-side anti-entropy period: the coordinator re-broadcasts the
#: current shard table and member roster this often, so a peer that missed
#: a one-shot ``ShardTableUpdate`` / ``MemberUp`` (dropped frame, transient
#: partition) still converges.
ANTI_ENTROPY_INTERVAL_S = 2.0
#: A joining node re-sends ``Join`` to its seed contact this often until
#: the ``Welcome`` arrives (the handshake itself may be lost on a lossy
#: network).
JOIN_RETRY_INTERVAL_S = 1.0

#: Bound lazily — the cluster layer must stay importable without pulling
#: :mod:`repro.platform` in (which imports this package right back).
_RESTORE_STATE = None


def _restore_state_message():
    global _RESTORE_STATE
    if _RESTORE_STATE is None:
        from repro.platform.messages import RestoreState
        _RESTORE_STATE = RestoreState
    return _RESTORE_STATE


class ShardCoordinator:
    """The leader-side authority over the shard table.

    Every node instantiates one, but only the current leader *acts*: on any
    membership change it bumps the table epoch, installs the new table
    locally and broadcasts ``ShardTableUpdate(epoch, nodes)`` — each
    receiver derives the identical consistent-hash assignment from the node
    list, so the table itself never crosses the wire.
    """

    def __init__(self, node: "ClusterNode") -> None:
        self._node = node
        self.rebalances = 0

    @property
    def is_active(self) -> bool:
        return self._node.membership.is_leader()

    def membership_changed(self) -> None:
        """Recompute and broadcast the shard table (leader only).

        The table is computed over the *assignable* set — alive members
        minus draining ones — and carries forward the rebalancer's
        overrides, dropping any whose target left that set (a shard must
        never stay pinned to a draining or dead node).
        """
        if not self.is_active:
            return
        node = self._node
        assignable = tuple(node.membership.assignable_ids())
        node_set = set(assignable)
        overrides = tuple((shard, owner) for shard, owner
                          in node.table.overrides if owner in node_set)
        update = ShardTableUpdate(epoch=node.table.epoch + 1,
                                  nodes=assignable, overrides=overrides)
        self.rebalances += 1
        node._install_table(update)
        node.broadcast_control(update)


class ClusterNode:
    """One member of the sharded actor cluster."""

    def __init__(self, node_id: str, transport: Transport,
                 config: ClusterConfig | None = None,
                 record_metrics: bool = False,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.node_id = node_id
        self.config = config or ClusterConfig()
        if (self.config.transport_batching
                and not isinstance(transport, BatchingTransport)):
            # The wrapper inherits this node's clock: under a virtual
            # clock the linger bookkeeping must not read wall time.
            transport = BatchingTransport(
                transport,
                linger_ms=self.config.batch_linger_ms,
                max_batch_bytes=self.config.max_batch_bytes,
                max_batch_msgs=self.config.max_batch_msgs,
                clock=clock)
        self.transport = transport
        self.clock = clock
        self.system = ActorSystem(name=node_id, record_metrics=record_metrics)
        self.membership = Membership(node_id, transport.address,
                                     self.config, clock)
        self.coordinator = ShardCoordinator(self)
        self.table = ShardTable(1, (node_id,), self.config.num_shards)
        self.joined = threading.Event()

        self._routers: dict[str, ShardRouter] = {}
        self._control: dict[str, Callable[[dict], Any]] = {}
        self._pending: dict[int, list[WireEnvelope]] = {}
        self._asks: dict[int, Future] = {}
        self._corr = itertools.count(1)
        self._lock = threading.RLock()
        self._last_heartbeat_sent = float("-inf")
        self._last_anti_entropy = float("-inf")
        self._seed_contact: tuple[str, Any] | None = None
        self._last_join_sent = float("-inf")
        self._last_load_report = float("-inf")
        self._last_busy_ms = 0.0
        self._closed = False
        #: Leader-side control loop (constructed everywhere so reports
        #: always land; only the active coordinator plans).
        self.rebalancer = Rebalancer(self)
        #: Broker consumer lag provider, wired by the platform layer on
        #: the seed node (others report 0).
        self.consumer_lag_fn: Callable[[], int] | None = None
        #: Hooks fired after a new shard table is installed
        #: (``fn(old_table, new_table)``) — the platform uses this to
        #: trigger stream replay for reassigned shards.
        self.on_table_change: list[Callable[[ShardTable, ShardTable], None]] = []
        #: Hooks fired on membership transitions (``fn(event)``).
        self.on_member_event: list[Callable[[MembershipEvent], None]] = []

        self.frames_in = 0
        self.frames_out = 0
        self.forwarded = 0
        self.buffered = 0
        self.redelivered = 0
        self.shards_moved = 0
        self.handoff_keys_released = 0
        self.load_reports_sent = 0
        self.migration_plans_seen = 0
        self.state_transfers_sent = 0
        self.state_transfers_received = 0
        self.state_transfer_drops = 0
        self.telemetry: Telemetry | None = None

    # -- lifecycle ----------------------------------------------------------------

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach a telemetry bundle: the actor system feeds its dispatch
        instruments, the transport registers its batch/flush metrics, and
        the node contributes routing counters plus heartbeat gauges (read
        from :meth:`Membership.snapshot`, never the live dict)."""
        self.telemetry = telemetry
        self.system.telemetry = telemetry
        registry = telemetry.registry
        self.transport.bind_telemetry(registry)
        for state in ("up", "suspect", "down", "joining"):
            registry.gauge(
                "cluster_members", {"state": state},
                fn=lambda s=state: self.membership.state_counts()[s])
        registry.gauge("node_frames_in", fn=lambda: self.frames_in)
        registry.gauge("node_frames_out", fn=lambda: self.frames_out)
        registry.gauge("node_forwarded", fn=lambda: self.forwarded)
        registry.gauge("node_buffered", fn=lambda: self.buffered)
        registry.gauge("node_redelivered", fn=lambda: self.redelivered)
        registry.gauge("node_shards_moved", fn=lambda: self.shards_moved)
        registry.gauge("node_handoff_keys_released",
                       fn=lambda: self.handoff_keys_released)
        registry.gauge("node_pending_shard_messages",
                       fn=lambda: self.pending_count)
        registry.gauge("node_state_transfers_sent",
                       fn=lambda: self.state_transfers_sent)
        registry.gauge("node_state_transfers_received",
                       fn=lambda: self.state_transfers_received)
        registry.gauge("node_rebalance_plans",
                       fn=lambda: self.rebalancer.plans_total)
        registry.gauge("node_rebalance_moves",
                       fn=lambda: self.rebalancer.moves_total)

    def start(self) -> None:
        self.transport.start(self._on_frame)

    def pump(self, timeout_s: float = 0.0) -> int:
        """Deliver the inbound frames queued so far on the calling thread
        (waiting up to ``timeout_s`` for the first), then run this node's
        actors to idle — the TCP analogue of :meth:`LoopbackHub.pump`.
        Returns frames delivered plus messages processed; 0 means idle."""
        return self.transport.pump(timeout_s) + self.system.run_until_idle()

    def join(self, seed_id: str, seed_address: Any) -> None:
        """Ask the seed node for admission (the gossip-free join protocol).

        Over loopback, pump the hub afterwards; over TCP, :meth:`pump` until
        :attr:`joined` is set. Until the ``Welcome`` arrives, :meth:`tick`
        re-sends the ``Join`` every ``JOIN_RETRY_INTERVAL_S`` — the
        handshake must survive a lossy network.
        """
        self.transport.add_peer(seed_id, seed_address)
        self._seed_contact = (seed_id, seed_address)
        self._last_join_sent = self.clock()
        self.send_control(seed_id, Join(self.node_id,
                                        self.transport.address))

    def leave(self) -> None:
        """Announce graceful departure so shards hand off immediately."""
        self.broadcast_control(Leave(self.node_id))

    def drain(self) -> None:
        """Start evacuating this node: announce draining so the
        coordinator assigns it no shards, while the node stays UP — it
        keeps heartbeating, routing, and transferring state until its
        shards have migrated off. Call :meth:`leave` once local entity
        routers are empty (the harness's scale-down sequence)."""
        self.broadcast_control(Draining(self.node_id))
        if self.membership.mark_draining(self.node_id):
            self.coordinator.membership_changed()

    def shutdown(self) -> None:
        self._closed = True
        self.transport.close()
        self.system.stop_all()

    # -- entities -----------------------------------------------------------------

    def register_entity(self, entity: str, factory, strategy=None,
                        local_router=None) -> ShardRouter:
        """Declare a sharded entity type (e.g. ``vessel``); returns its
        location-transparent router. Every node must register the same
        entity set — an entity's actors can live on any of them.
        ``local_router`` substitutes a specialised
        :class:`~repro.actors.router.KeyRouter` for local delivery (the
        collision entity's single-occupant fast path)."""
        if entity in self._routers:
            raise ValueError(f"entity {entity!r} already registered")
        router = ShardRouter(self, entity, factory, strategy=strategy,
                             local_router=local_router)
        self._routers[entity] = router
        return router

    def router(self, entity: str) -> ShardRouter:
        return self._routers[entity]

    def register_control(self, op: str, handler: Callable[[dict], Any]
                         ) -> None:
        """Register a node-level request handler reachable via
        :meth:`ask_control` (e.g. ``"stats"``, ``"metrics"``)."""
        self._control[op] = handler

    # -- shard routing -------------------------------------------------------------

    def shard_owner(self, shard: int) -> str:
        return self.table.owner_of(shard)

    def _sender_info(self, sender) -> tuple[str | None, str | None]:
        if sender is None:
            return None, None
        if isinstance(sender, RemoteActorRef):
            return sender.node_id, sender.name
        return self.node_id, sender.name

    def _materialize_sender(self, env: WireEnvelope):
        if env.sender_name is None:
            return None
        if env.sender_node == self.node_id:
            return ActorRef(env.sender_name, self.system)
        return RemoteActorRef(env.sender_name, env.sender_node, self)

    def send_sharded(self, entity: str, key: Any, message: Any,
                     sender=None) -> None:
        """Route a message to the owner of ``key``'s shard (the remote leg
        of :meth:`ShardRouter.tell`)."""
        sender_node, sender_name = self._sender_info(sender)
        env = WireEnvelope(kind="sharded", src=self.node_id, entity=entity,
                           key=key, message=message,
                           sender_node=sender_node, sender_name=sender_name,
                           trace_id=current_trace())
        self._route_sharded(env)

    def _route_sharded(self, env: WireEnvelope) -> None:
        shard = shard_for_key(env.entity, env.key, self.config.num_shards)
        owner = self.table.owner_of(shard)
        if owner == self.node_id:
            router = self._routers.get(env.entity)
            if router is None:
                self._dead_letter(env)
                return
            router.deliver_local(env.key, env.message,
                                 sender=self._materialize_sender(env))
            return
        state = self.membership.state_of(owner)
        if state is not MemberState.UP:
            # Owner unreachable or suspect: buffer for redelivery once the
            # coordinator reassigns the shard (or the owner recovers).
            self._buffer(shard, env)
            return
        if not self._send(owner, env):
            self._buffer(shard, env)

    def _buffer(self, shard: int, env: WireEnvelope) -> None:
        with self._lock:
            self._pending.setdefault(shard, []).append(env)
            self.buffered += 1

    def flush_pending(self) -> int:
        """Re-route buffered shard messages (called after table installs
        and heartbeat recoveries). Returns how many were redelivered."""
        with self._lock:
            pending = self._pending
            self._pending = {}
        count = 0
        for shard, envelopes in pending.items():
            for env in envelopes:
                count += 1
                self._route_sharded(replace(env, hops=0))
        if count:
            self.redelivered += count
        return count

    @property
    def pending_count(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._pending.values())

    # -- named refs / asks ---------------------------------------------------------

    def actor_ref(self, name: str, node_id: str | None = None):
        """A ref to a named (non-sharded) actor anywhere in the cluster."""
        if node_id is None or node_id == self.node_id:
            return self.system.actor_ref(name)
        return RemoteActorRef(name, node_id, self)

    def send_named(self, node_id: str, name: str, message: Any,
                   sender=None) -> None:
        if node_id == self.node_id:
            self.system.actor_ref(name).tell(message, sender=sender)
            return
        sender_node, sender_name = self._sender_info(sender)
        env = WireEnvelope(kind="named", src=self.node_id, target=name,
                           message=message, sender_node=sender_node,
                           sender_name=sender_name,
                           trace_id=current_trace())
        self._send(node_id, env)

    def ask_named(self, node_id: str, name: str, message: Any) -> Future:
        if node_id == self.node_id:
            return self.system.actor_ref(name).ask(message)
        future = Future()
        with self._lock:
            corr = next(self._corr)
            self._asks[corr] = future
        env = WireEnvelope(kind="ask", src=self.node_id, target=name,
                           message=message, corr_id=corr)
        if not self._send(node_id, env):
            with self._lock:
                self._asks.pop(corr, None)
            raise TransportError(f"ask to {node_id} failed to send")
        return future

    def ask_control(self, node_id: str, op: str,
                    params: dict | None = None) -> Future:
        """Ask a node-level control handler (local or remote)."""
        request = ControlRequest(op=op, params=params or {})
        future = Future()
        if node_id == self.node_id:
            future.complete(self._handle_control_request(request))
            return future
        with self._lock:
            corr = next(self._corr)
            self._asks[corr] = future
        env = WireEnvelope(kind="ask", src=self.node_id, target=None,
                           message=request, corr_id=corr)
        if not self._send(node_id, env):
            with self._lock:
                self._asks.pop(corr, None)
            raise TransportError(f"control ask to {node_id} failed to send")
        return future

    def send_reply(self, node_id: str, corr_id: int, value: Any) -> None:
        if node_id == self.node_id:
            self._complete_ask(corr_id, value)
            return
        env = WireEnvelope(kind="reply", src=self.node_id, corr_id=corr_id,
                           message=value)
        self._send(node_id, env)

    def _complete_ask(self, corr_id: int, value: Any) -> None:
        with self._lock:
            future = self._asks.pop(corr_id, None)
        if future is not None:
            future.complete(value)

    # -- control plane -------------------------------------------------------------

    def send_control(self, node_id: str, message: Any) -> bool:
        env = WireEnvelope(kind="control", src=self.node_id,
                           message=message)
        return self._send(node_id, env)

    def broadcast_control(self, message: Any) -> None:
        for peer in self.membership.peer_ids():
            self.send_control(peer, message)

    def tick(self, now: float | None = None) -> list[MembershipEvent]:
        """Drive heartbeats and the failure detector.

        Deterministic runs call this from a virtual-clock loop; TCP runs
        call it between pumps, on the pumping thread. Returns the
        membership transitions performed (SUSPECT / DOWN declarations).
        """
        if now is None:
            now = self.clock()
        if (now - self._last_heartbeat_sent
                >= self.config.heartbeat_interval_s):
            self._last_heartbeat_sent = now
            beat = Heartbeat(self.node_id)
            for peer in self.membership.peer_ids():
                self.send_control(peer, beat)
        if (self._seed_contact is not None
                and not self.joined.is_set()
                and now - self._last_join_sent >= JOIN_RETRY_INTERVAL_S):
            self._last_join_sent = now
            seed_id, seed_address = self._seed_contact
            self.send_control(seed_id, Join(self.node_id,
                                            self.transport.address))
        if (self.coordinator.is_active
                and now - self._last_anti_entropy >= ANTI_ENTROPY_INTERVAL_S):
            # Control broadcasts (table updates, member roster) are
            # one-shot; on a lossy network a peer that missed one would
            # stay stale forever. The leader therefore re-asserts its
            # view periodically — receivers install idempotently.
            self._last_anti_entropy = now
            update = ShardTableUpdate(epoch=self.table.epoch,
                                      nodes=self.table.nodes,
                                      overrides=self.table.overrides)
            roster = [m for m in self.membership.members()
                      if m.state in (MemberState.UP, MemberState.SUSPECT)
                      and m.node_id != self.node_id]
            for peer in self.membership.peer_ids():
                self.send_control(peer, update)
                for member in roster:
                    if member.node_id != peer:
                        self.send_control(peer, MemberUp(member.node_id,
                                                         member.address))
        if (self.config.load_report_interval_s > 0
                and now - self._last_load_report
                >= self.config.load_report_interval_s):
            self._last_load_report = now
            report = self._build_load_report()
            leader = self.membership.leader()
            if leader == self.node_id:
                self.rebalancer.observe(report)
            else:
                self.send_control(leader, report)
            self.load_reports_sent += 1
        self.rebalancer.maybe_rebalance(now)
        events = self.membership.check()
        downs = [e for e in events if e.state is MemberState.DOWN]
        if downs:
            # The (possibly new) leader reassigns the dead nodes' shards.
            self.coordinator.membership_changed()
        for event in events:
            for hook in self.on_member_event:
                hook(event)
        return events

    def _build_load_report(self) -> LoadReport:
        """One load window: per-shard delivery deltas from every entity
        router, the mailbox backlog gauge, the platform-provided consumer
        lag, and the telemetry processing-time delta."""
        shard_messages: dict[int, int] = {}
        entities = 0
        for router in self._routers.values():
            entities += len(router)
            for shard, count in router.take_shard_load().items():
                shard_messages[shard] = shard_messages.get(shard, 0) + count
        busy_ms = 0.0
        if self.telemetry is not None:
            total = self.telemetry.processing_ms_total()
            busy_ms = max(0.0, total - self._last_busy_ms)
            self._last_busy_ms = total
        lag = self.consumer_lag_fn() if self.consumer_lag_fn else 0
        return LoadReport(
            node_id=self.node_id,
            mailbox_depth=self.system.total_mailbox_depth(),
            consumer_lag=int(lag),
            busy_ms=busy_ms,
            entities=entities,
            shard_messages=tuple(sorted(shard_messages.items())))

    # -- inbound frames ------------------------------------------------------------

    def _send(self, node_id: str, env: WireEnvelope) -> bool:
        try:
            self.transport.send(node_id, codec.encode(env))
            self.frames_out += 1
            return True
        except TransportError:
            return False

    def _on_frame(self, frame: bytes) -> None:
        if self._closed:
            return
        env = codec.decode(frame)
        self.frames_in += 1
        self._on_envelope(env)

    def _on_envelope(self, env: WireEnvelope) -> None:
        if env.trace_id is None:
            return self._dispatch_envelope(env)
        # Re-establish the trace on the receiving side so local re-tells
        # (router delivery, actor fan-out) stamp the same id.
        set_current_trace(env.trace_id)
        try:
            self._dispatch_envelope(env)
        finally:
            clear_current_trace()

    def _dispatch_envelope(self, env: WireEnvelope) -> None:
        if env.kind == "sharded":
            self._on_sharded(env)
        elif env.kind == "named":
            self.system.actor_ref(env.target).tell(
                env.message, sender=self._materialize_sender(env))
        elif env.kind == "ask":
            self._on_ask(env)
        elif env.kind == "reply":
            self._complete_ask(env.corr_id, env.message)
        elif env.kind == "control":
            self._on_control(env.src, env.message)

    def _on_sharded(self, env: WireEnvelope) -> None:
        shard = shard_for_key(env.entity, env.key, self.config.num_shards)
        owner = self.table.owner_of(shard)
        if owner != self.node_id:
            if env.hops < MAX_HOPS:
                # The sender routed with a stale table — forward to the
                # owner we know (one extra hop per epoch of staleness).
                self.forwarded += 1
                forwarded = replace(env, hops=env.hops + 1)
                if not self._send(owner, forwarded):
                    self._buffer(shard, forwarded)
            else:
                # Hop budget exhausted mid-churn (tables still disagree).
                # Never deliver to a non-owner — that would spawn an
                # entity actor on the wrong node, invisible to any later
                # handoff. Buffer; flush_pending re-routes fresh once a
                # table installs or the owner recovers.
                self._buffer(shard, replace(env, hops=0))
            return
        router = self._routers.get(env.entity)
        if router is None:
            self._dead_letter(env)
            return
        router.deliver_local(env.key, env.message,
                             sender=self._materialize_sender(env))

    def _dead_letter(self, env: WireEnvelope) -> None:
        self.system.dead_letters.append(
            (f"{env.entity}-{env.key}", Envelope(message=env.message)))
        self.system.dead_letter_count += 1

    def _on_ask(self, env: WireEnvelope) -> None:
        if env.target is None and isinstance(env.message, ControlRequest):
            result = self._handle_control_request(env.message)
            self.send_reply(env.src, env.corr_id, result)
            return
        relay = ReplyRelay(self, env.src, env.corr_id)
        self.system._deliver(env.target,
                             Envelope(message=env.message, reply_to=relay))

    def _handle_control_request(self, request: ControlRequest) -> Any:
        handler = self._control.get(request.op)
        if handler is None:
            return {"error": f"unknown control op {request.op!r}"}
        return handler(request.params)

    def _on_control(self, src: str, message: Any) -> None:
        if isinstance(message, Heartbeat):
            if self.membership.heartbeat(message.node_id):
                self.flush_pending()  # a suspect recovered
        elif isinstance(message, Join):
            self._on_join(message)
        elif isinstance(message, Welcome):
            self._on_welcome(message)
        elif isinstance(message, MemberUp):
            self.transport.add_peer(message.node_id, message.address)
            self.membership.add(message.node_id, message.address)
        elif isinstance(message, MemberDown):
            if self.membership.mark_down(message.node_id):
                self.coordinator.membership_changed()
        elif isinstance(message, Leave):
            if self.membership.mark_down(message.node_id):
                self.coordinator.membership_changed()
        elif isinstance(message, ShardTableUpdate):
            self._install_table(message)
        elif isinstance(message, LoadReport):
            self.rebalancer.observe(message)
        elif isinstance(message, Draining):
            if self.membership.mark_draining(message.node_id):
                self.coordinator.membership_changed()
        elif isinstance(message, MigrationPlan):
            self.migration_plans_seen += 1
        elif isinstance(message, ShardStateTransfer):
            self._on_state_transfer(message)

    def _on_join(self, join: Join) -> None:
        self.transport.add_peer(join.node_id, join.address)
        changed = self.membership.add(join.node_id, join.address)
        members = tuple((m.node_id, m.address)
                        for m in self.membership.members()
                        if m.state is not MemberState.DOWN)
        # Tell the newcomer who is here; the table update follows from the
        # coordinator broadcast below (epoch in Welcome covers the race
        # where the newcomer sends sharded messages before the update).
        self.send_control(join.node_id, Welcome(
            members=members, table_epoch=self.table.epoch,
            table_nodes=self.table.nodes,
            table_overrides=self.table.overrides))
        for peer in self.membership.peer_ids():
            if peer != join.node_id:
                self.send_control(peer, MemberUp(join.node_id, join.address))
        if changed:
            self.coordinator.membership_changed()

    def _on_welcome(self, welcome: Welcome) -> None:
        for node_id, address in welcome.members:
            if node_id != self.node_id:
                self.transport.add_peer(node_id, address)
                self.membership.add(node_id, address)
        self._install_table(ShardTableUpdate(
            epoch=welcome.table_epoch, nodes=welcome.table_nodes,
            overrides=welcome.table_overrides))
        self.joined.set()

    # -- shard table install + handoff ----------------------------------------------

    def _install_table(self, update: ShardTableUpdate) -> None:
        with self._lock:
            new = ShardTable(update.epoch, update.nodes,
                             self.config.num_shards,
                             overrides=update.overrides)
            # Idempotence guard compares the *routing outcome*, not just
            # (epoch, nodes): two same-epoch tables may differ in their
            # rebalance overrides (an anti-entropy echo racing a plan),
            # and skipping one would leave ownership split.
            if (update.epoch < self.table.epoch
                    or (update.epoch == self.table.epoch
                        and new.nodes == self.table.nodes
                        and new.overrides == self.table.overrides)):
                return
            old = self.table
            self.table = new
        self._handoff(old, self.table)
        self.flush_pending()
        for hook in self.on_table_change:
            hook(old, self.table)

    def _handoff(self, old: ShardTable, new: ShardTable) -> None:
        """Graceful release of local shards this node no longer owns.

        Each departing entity actor has its state exported and is stopped;
        envelopes still queued in its mailbox are re-routed through the
        shard router so they reach the shard's new owner (buffered
        redelivery). Exported state travels to the new owner in
        :class:`ShardStateTransfer` envelopes *before* the re-told
        pending messages, so on an ordered link the new actor restores
        first and then consumes the backlog; adopt-if-newer guards keep a
        reversed or duplicated arrival safe.
        """
        self.shards_moved += len(old.moved_shards(new))
        released: list[tuple[ShardRouter, Any, list]] = []
        transfers: dict[tuple[str, int], list[tuple[str, Any, dict]]] = {}
        for router in self._routers.values():
            for key in router.handoff_keys():
                state = router.export_state(key)
                shard = router.shard_of(key)
                pending = router.release(key)
                self.handoff_keys_released += 1
                released.append((router, key, pending))
                if state is None:
                    continue
                owner = new.owner_of(shard)
                if owner != self.node_id:
                    transfers.setdefault((owner, shard), []).append(
                        (router.entity, key, state))
        for owner, shard in sorted(transfers):
            entries = transfers[(owner, shard)]
            sent = self.send_control(owner, ShardStateTransfer(
                shard=shard, epoch=new.epoch, entries=tuple(entries)))
            if sent:
                self.state_transfers_sent += len(entries)
            else:
                # The owner is unreachable: its state is rebuilt by the
                # platform's stream replay instead (the pre-rebalance
                # recovery path, still correct — just slower).
                self.state_transfer_drops += len(entries)
        for router, key, pending in released:
            for envelope in pending:
                router.tell(key, envelope.message,
                            sender=envelope.sender)

    def _on_state_transfer(self, transfer: ShardStateTransfer) -> None:
        """Apply a live-migration state transfer through the sharded
        routers: routing (not direct local delivery) means entries whose
        shard moved again while the transfer was in flight simply forward
        to the current owner, and adopt-if-newer guards in each actor's
        ``restore_state`` make duplicates and stale arrivals no-ops."""
        RestoreState = _restore_state_message()
        for entity, key, state in transfer.entries:
            router = self._routers.get(entity)
            if router is None:
                continue
            router.tell(key, RestoreState(entity=entity, key=key,
                                          state=state))
            self.state_transfers_received += 1

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> dict:
        # Membership facts come from one snapshot() so the view is
        # internally consistent whichever thread asks for the stats.
        members = self.membership.snapshot()
        alive = sorted(m.node_id for m in members
                       if m.state in (MemberState.UP, MemberState.SUSPECT))
        counters = {
            "node_id": self.node_id,
            "epoch": self.table.epoch,
            "alive": alive,
            "leader": alive[0] if alive else self.node_id,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "forwarded": self.forwarded,
            "buffered": self.buffered,
            "redelivered": self.redelivered,
            "shards_moved": self.shards_moved,
            "handoff_keys_released": self.handoff_keys_released,
            "load_reports_sent": self.load_reports_sent,
            "migration_plans_seen": self.migration_plans_seen,
            "state_transfers_sent": self.state_transfers_sent,
            "state_transfers_received": self.state_transfers_received,
            "state_transfer_drops": self.state_transfer_drops,
            "draining": self.membership.draining_ids(),
            "rebalancer": self.rebalancer.stats(),
            "pending": self.pending_count,
            "active_actors": self.system.active_count,
            "dead_letters": self.system.dead_letter_count,
            #: Outbound transport counters (bytes/frames/batches; empty
            #: for plain loopback).
            "transport": self.transport.stats(),
            #: Wire-codec counters — process-wide, so loopback clusters
            #: report the same numbers on every node.
            "codec": codec.counters(),
        }
        with self.system._lock:
            counters["messages_processed"] = sum(
                c.messages_processed for c in self.system._cells.values())
        for entity, router in self._routers.items():
            counters[f"{entity}_local"] = len(router)
        return counters


def run_cluster_until_idle(nodes: Iterable["ClusterNode"], hub,
                           max_rounds: int = 100_000) -> int:
    """Pump a loopback cluster to global quiescence (deterministic).

    Alternates transport delivery with per-node dispatcher runs until no
    frame moved and no actor processed a message — the cluster-wide
    analogue of :meth:`ActorSystem.run_until_idle`. Returns the number of
    actor messages processed.
    """
    nodes = list(nodes)
    total = 0
    for _ in range(max_rounds):
        frames = hub.pump()
        processed = 0
        for node in nodes:
            processed += node.system.run_until_idle()
        total += processed
        if frames == 0 and processed == 0 and hub.pending == 0:
            return total
    raise RuntimeError("cluster did not reach quiescence "
                       f"within {max_rounds} rounds")
