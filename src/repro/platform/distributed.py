"""The multi-node platform: Figure 2's topology sharded across nodes.

:class:`DistributedPlatform` assembles one node's share of the platform on
top of a :class:`~repro.cluster.node.ClusterNode`: the vessel, proximity
cell and collision cell actors become *sharded entities* (consistent-hash
shards spread over the cluster, exactly Akka cluster sharding's role in
the paper), while the writer and flow actors stay node-local — each node
persists the states and events of the actors it hosts, and the forecasting
model is mounted **once per node** and shared by that node's vessel actors
("the model is mounted only once in memory for each computational node",
Section 3).

The seed node additionally runs the broker and the ingestion service; a
vessel's position reports reach its actor wherever the shard table placed
it. After a node loss the seed replays the tail of every AIS partition
from the committed offsets (:meth:`Consumer.seek`) so reassigned vessel
actors rebuild their history windows — the loss window is then only what
the dead node had accepted but not yet processed.

:class:`LoopbackCluster` packs N such platforms over a deterministic
loopback hub in one process — the harness behind the cluster tests, the
sim campaigns and ``bench/``'s ``cluster4_svrf`` workload. The same
platform across two OS processes over TCP is ``examples/cluster_over_tcp.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.ais.fleet import MessageBatch
from repro.ais.message import AISMessage
from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    LoopbackHub,
    VirtualClock,
    run_cluster_until_idle,
)
from repro.models.base import RouteForecaster
from repro.models.kinematic import LinearKinematicModel
from repro.platform.api import MiddlewareAPI
from repro.platform.checkpoint import (
    ClusterCheckpoint,
    capture_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.platform.config import PlatformConfig
from repro.platform.ingestion import IngestionService
from repro.platform.messages import (
    PositionIngested,
    PruneTick,
    RestoreState,
)
from repro.platform.pipeline import wire_node
from repro.streams import ConsumerGroup, PositionBlock, Producer
from repro.telemetry import Telemetry, complete_traces, merge_traces


class DistributedPlatform:
    """One node's slice of the clustered maritime platform."""

    def __init__(self, node: ClusterNode,
                 forecaster: RouteForecaster | None = None,
                 config: PlatformConfig | None = None,
                 is_seed: bool = False,
                 replay_records_per_partition: int = 500) -> None:
        self.node = node
        self.system = node.system
        self.config = config or PlatformConfig()
        self.is_seed = is_seed
        self.replay_records_per_partition = replay_records_per_partition

        # Per-node Figure 6 instrumentation samples this node's vessel
        # population (LoopbackCluster overrides it with the cluster-wide
        # count).
        self.wiring = wiring = wire_node(self.system, self.config,
                                         forecaster, node.register_entity)
        self.broker = wiring.broker
        self.kvstore = wiring.kvstore
        self.pubsub = wiring.pubsub
        self.producer = Producer(self.broker)

        self.ingestion: IngestionService | None = None
        if is_seed:
            self.ingestion = IngestionService(wiring)
            # Feed the broker backlog into this node's LoadReports so the
            # leader's rebalancer sees ingest pressure, not just actor load.
            node.consumer_lag_fn = lambda: self.ingestion.lag
        self.api = MiddlewareAPI(self.kvstore, self.pubsub, self)

        self.telemetry: Telemetry | None = None
        if self.config.record_telemetry:
            self.telemetry = Telemetry(
                node.node_id, clock=node.clock,
                trace_sample_every=self.config.trace_sample_every)
            node.bind_telemetry(self.telemetry)
            if self.ingestion is not None:
                # Consumer lag only exists on the seed (sole ingester).
                self.telemetry.registry.gauge(
                    "broker_consumer_lag", fn=lambda: self.ingestion.lag)

        self._replay_generation = 0
        self._replays_done = 0
        # Committed offsets captured at the first pending *no-loss* table
        # change (rebalance/join/drain). None means any pending replay must
        # use the bounded-depth path (a node died with unprocessed input).
        self._suffix_offsets: dict[int, int] | None = None
        node.on_table_change.append(self._on_table_change)
        node.register_control("platform_stats",
                              lambda params: self.stats())
        node.register_control("metrics_snapshot",
                              lambda params: self.metrics_snapshot())
        node.register_control("telemetry_snapshot",
                              lambda params: self.telemetry_snapshot())
        node.register_control("sync_clock",
                              lambda params: self.sync_clock(params["now"]))
        node.register_control("flush_stage",
                              lambda params: self.flush_stage(params["stage"]))

    # -- publishing (seed only) ------------------------------------------------------

    def _require_seed(self) -> None:
        if not self.is_seed:
            raise RuntimeError("only the seed node ingests the AIS stream")

    def publish_messages(self, messages: Iterable[AISMessage]) -> int:
        self._require_seed()
        count = 0
        for msg in messages:
            self.producer.send(self.config.ais_topic, msg.mmsi, msg, msg.t)
            count += 1
        return count

    def publish_batch(self, batch: MessageBatch) -> int:
        self._require_seed()
        block = PositionBlock(mmsi=batch.mmsi, t=batch.t, lat=batch.lat,
                              lon=batch.lon, sog=batch.sog, cog=batch.cog)
        return self.producer.send_block(self.config.ais_topic, block)

    # -- ingestion & replay ----------------------------------------------------------

    def ingest_available(self, max_rounds: int = 1_000_000) -> int:
        """Drain the AIS topic into the (possibly remote) vessel actors.

        Unlike the single-node :meth:`Platform.process_available`, this does
        *not* run dispatchers — the caller pumps the cluster (loopback) or
        lets worker threads drain mailboxes (TCP/threaded).
        """
        self._require_seed()
        total = 0
        for _ in range(max_rounds):
            dispatched = self.ingestion.poll_once()
            if dispatched == 0 and self.ingestion.lag == 0:
                break
            total += dispatched
        return total

    def _on_table_change(self, old, new) -> None:
        if not self.is_seed or old.assignment == new.assignment:
            return
        removed = set(old.nodes) - set(new.nodes)
        alive = set(self.node.membership.alive_ids())
        if removed and not removed <= alive:
            # A shard owner died: whatever it had accepted but not
            # processed is gone, so only the bounded-depth replay can
            # rebuild reassigned actors. Supersedes any pending suffix.
            self._suffix_offsets = None
        elif not self.replay_pending:
            # No-loss reshuffle (rebalance, join, drain): migrated actors
            # carried their state across, so replaying the suffix past the
            # offsets committed *before* this change covers exactly the
            # records that may have raced the handoff.
            topic = self.config.ais_topic
            self._suffix_offsets = {
                partition: self.broker.committed("platform", topic,
                                                 partition)
                for partition in range(self.config.ais_partitions)}
        self._replay_generation += 1

    @property
    def replay_pending(self) -> bool:
        return self.is_seed and self._replay_generation > self._replays_done

    def replay_if_needed(self) -> int:
        """After a shard reassignment, replay the tail of every AIS
        partition from just before the committed offset.

        Reassigned vessel actors spawn fresh on their new owner and rebuild
        their downsampled history windows from the replayed records; actors
        that never moved drop the duplicates as stale (the vessel actor's
        timestamp monotonicity check). Returns the number of replayed
        records dispatched.

        When every pending change was *no-loss* (live rebalance, join,
        drain — migrated actors carried their state across), only the
        stream suffix past the offsets committed before the first change
        is replayed instead of the fixed per-partition depth.
        """
        if not self.replay_pending:
            return 0
        self._replays_done = self._replay_generation
        offsets, self._suffix_offsets = self._suffix_offsets, None
        if offsets is not None:
            return self._replay(f"replay-suffix-{self._replays_done}",
                                depth=None, offsets=offsets)
        return self._replay(f"replay-{self._replays_done}",
                            depth=self.replay_records_per_partition)

    def replay_from_start(self) -> int:
        """Replay every AIS partition from offset 0 through the normal
        sharded routing path (:meth:`Consumer.seek` to the beginning).

        This is the strongest recovery action the platform offers — and
        the oracle behind the sim harness's no-acknowledged-loss
        invariant: after a full replay, every vessel actor must hold the
        newest acknowledged position regardless of what the network did.
        """
        self._require_seed()
        self._replays_done = self._replay_generation
        self._suffix_offsets = None
        return self._replay("replay-full", depth=None)

    def replay_from_offsets(self, offsets: dict[int, int],
                            group_id: str = "replay-checkpoint") -> int:
        """Replay only the stream **suffix** past checkpointed offsets.

        ``offsets`` maps partition -> first offset to re-dispatch (the
        per-partition committed offsets a checkpoint recorded). This is
        the cheap half of checkpointed recovery: actor state comes from
        snapshots, and only records the checkpoint had not yet covered are
        re-routed — strictly fewer than :meth:`replay_from_start`
        re-dispatches whenever the checkpoint made any progress.
        """
        self._require_seed()
        return self._replay(group_id, depth=None, offsets=offsets)

    def _replay(self, group_id: str, depth: int | None,
                offsets: dict[int, int] | None = None) -> int:
        """Re-dispatch committed records per partition to the vessel
        routers: the last ``depth`` of them, everything when ``depth`` is
        None, or the suffix from explicit per-partition ``offsets``."""
        topic = self.config.ais_topic
        group = ConsumerGroup(self.broker, group_id, topic)
        consumer = group.join()   # sole member: assigned every partition
        for partition in consumer.assignment:
            if offsets is not None:
                consumer.seek(topic, partition, offsets.get(partition, 0))
            elif depth is None:
                consumer.seek(topic, partition, 0)
            else:
                committed = self.broker.committed("platform", topic,
                                                  partition)
                consumer.seek(topic, partition, max(0, committed - depth))
        replayed = 0
        buffer: list = []   # reused across polls (no per-poll allocation)
        while True:
            records = consumer.poll(max_records=2_000, out=buffer)
            if not records:
                break
            for record in records:
                if isinstance(record.value, AISMessage):
                    self.wiring.vessel_router.tell(
                        record.value.mmsi, PositionIngested(record.value))
                    replayed += 1
                elif isinstance(record.value, PositionBlock):
                    block = record.value
                    for i in range(len(block)):
                        msg = AISMessage(
                            mmsi=int(block.mmsi[i]), t=float(block.t[i]),
                            lat=float(block.lat[i]), lon=float(block.lon[i]),
                            sog=float(block.sog[i]), cog=float(block.cog[i]))
                        self.wiring.vessel_router.tell(
                            msg.mmsi, PositionIngested(msg))
                        replayed += 1
        consumer.close()
        return replayed

    # -- housekeeping / clock ---------------------------------------------------------

    def housekeeping(self) -> None:
        """Prune this node's spatial actors (local shards only — every node
        housekeeps its own)."""
        tick = PruneTick(now=self.system.now)
        for cell in self.wiring.cell_router.known_keys():
            self.wiring.cell_router.tell(cell, tick)
        for cell in self.wiring.collision_router.known_keys():
            self.wiring.collision_router.tell(cell, tick)

    def sync_clock(self, now: float) -> dict:
        """Advance this node's virtual clock to stream time ``now`` (the
        seed broadcasts it so scheduled housekeeping fires cluster-wide)."""
        if now > self.system.now:
            self.system.advance_time(now - self.system.now)
        return {"now": self.system.now}

    # -- introspection ----------------------------------------------------------------

    @property
    def vessel_count(self) -> int:
        """Vessel actors hosted on *this* node."""
        return len(self.wiring.vessel_router)

    def event_count(self, kind: str) -> int:
        return self.kvstore.llen(f"events:{kind}", now=self.system.now)

    def flush_stage(self, stage: int) -> dict:
        """Flush one of this node's ``wiring.batch_stages`` (the
        ``flush_stage`` control op; writers flush async, so pump the
        cluster afterwards). A cluster-wide barrier flushes stage ``i`` on
        every node and settles before moving to stage ``i + 1``."""
        owner = self.wiring.batch_stages[stage]
        if owner is not None:
            owner.flush()
        return {"stage": stage}

    def assign_voyage(self, mmsi: int, waypoints, deadline_t: float,
                      base_speed_kn: float | None = None) -> None:
        """Route a voyage assignment to wherever the vessel's twin is
        sharded (async; pump the cluster afterwards)."""
        if not self.config.voyage_optimization:
            raise RuntimeError(
                "voyage_optimization is disabled in this PlatformConfig")
        from repro.platform.messages import VoyageAssigned
        self.wiring.vessel_router.tell(mmsi, VoyageAssigned(
            mmsi=mmsi,
            waypoints=tuple((float(lat), float(lon))
                            for lat, lon in waypoints),
            deadline_t=deadline_t, base_speed_kn=base_speed_kn))

    def export_outputs(self) -> dict:
        """Snapshot this node's durably written KV outputs (event logs,
        vessel state rows) for hand-off during a graceful scale-in. The
        caller flushes writers and settles first so pending micro-batches
        are included."""
        return self.kvstore.snapshot_state()

    def absorb_outputs(self, outputs: dict) -> int:
        """Fold a retiring peer's :meth:`export_outputs` snapshot into
        this node's KV store (lists append, newer local rows win — see
        :meth:`KeyValueStore.merge_state`). Returns the merged key count."""
        return self.kvstore.merge_state(outputs, now=self.system.now)

    def stats(self) -> dict:
        writer_pool = self.wiring.writer_ref
        counters = dict(self.node.stats())
        counters.update({
            "vessels_local": self.vessel_count,
            "cells_local": len(self.wiring.cell_router),
            "collision_cells_local": len(self.wiring.collision_router),
            "states_written": writer_pool.states_written,
            "events_written": writer_pool.events_written,
            "writer_flushes": writer_pool.flushes,
            "events_proximity": self.event_count("proximity"),
            "events_collision": self.event_count("collision"),
        })
        return counters

    def flow_snapshot(self):
        """This node's traffic-flow aggregation state (an ``IndirectVTFF``
        over the forecasts of locally-hosted vessel actors)."""
        return self.system.ask_sync(self.wiring.flow_ref, "snapshot")

    def metrics_snapshot(self) -> dict:
        if self.system.metrics is None:
            return {"samples": 0}
        return self.system.metrics.snapshot()

    def telemetry_snapshot(self) -> dict:
        """This node's metrics + trace hops (``{"enabled": False}`` when
        telemetry recording is off)."""
        if self.telemetry is None:
            return {"enabled": False}
        snap = self.telemetry.snapshot()
        snap["enabled"] = True
        return snap

    def shutdown(self) -> None:
        self.node.shutdown()


class LoopbackCluster:
    """N deterministic :class:`DistributedPlatform` nodes in one process.

    All transports share one :class:`LoopbackHub` and one virtual wall
    clock, so every run — including membership timeouts and shard handoff —
    is exactly reproducible with no threads and no sleeps.
    """

    def __init__(self, num_nodes: int = 2,
                 forecaster_factory=None,
                 config: PlatformConfig | None = None,
                 cluster_config: ClusterConfig | None = None,
                 record_metrics: bool = False,
                 replay_records_per_partition: int = 500,
                 hub: LoopbackHub | None = None,
                 clock: VirtualClock | None = None) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        # Both the hub and the clock are injectable so repro.sim can swap
        # in its fault-injecting SimHub and share the scenario's timeline.
        self.hub = hub if hub is not None else LoopbackHub()
        self.clock = clock if clock is not None else VirtualClock()
        self.cluster_config = cluster_config or ClusterConfig()
        self.nodes: list[ClusterNode] = []
        self.platforms: list[DistributedPlatform] = []
        self._platform_config = config
        self._record_metrics = record_metrics
        self._replay_records_per_partition = replay_records_per_partition
        self._forecaster_factory = forecaster_factory or LinearKinematicModel
        for i in range(num_nodes):
            self._spawn_node(f"node-{i:02d}", is_seed=(i == 0))
        seed = self.nodes[0]
        for node in self.nodes[1:]:
            node.join(seed.node_id, seed.transport.address)
        self.settle()

    @property
    def _wall(self) -> float:
        return self.clock.now

    def _spawn_node(self, node_id: str, is_seed: bool) -> DistributedPlatform:
        node = ClusterNode(node_id, self.hub.transport(node_id),
                           config=self.cluster_config,
                           system_mode="deterministic",
                           record_metrics=self._record_metrics,
                           clock=self.clock)
        node.start()
        platform = DistributedPlatform(
            node, forecaster=self._forecaster_factory(),
            config=self._platform_config, is_seed=is_seed,
            replay_records_per_partition=self._replay_records_per_partition)
        self.nodes.append(node)
        self.platforms.append(platform)
        return platform

    @property
    def seed(self) -> DistributedPlatform:
        return self.platforms[0]

    # -- driving ---------------------------------------------------------------------

    def settle(self, max_rounds: int = 100_000) -> int:
        """Run the whole cluster to quiescence (frames + mailboxes)."""
        return run_cluster_until_idle(self.nodes, self.hub,
                                      max_rounds=max_rounds)

    def process_available(self) -> int:
        """Seed-ingest everything published, pump to idle, sync clocks and
        serve any pending post-handoff replay."""
        total = 0
        while True:
            dispatched = self.seed.ingestion.poll_once()
            total += dispatched
            self.settle()
            if dispatched == 0 and self.seed.ingestion.lag == 0:
                break
        replayed = self.seed.replay_if_needed()
        if replayed:
            self.settle()
        now = self.seed.system.now
        for platform in self.platforms[1:]:
            platform.sync_clock(now)
        self.settle()
        self.flush_writers()
        return total

    def flush_writers(self, platforms=None) -> None:
        """The flush barrier over ``platforms`` (default: every node):
        each of ``wiring.batch_stages`` in turn, settling between stages —
        so KV reads observe everything processed so far, including the
        writes that ride on forecast and plan replies."""
        platforms = self.platforms if platforms is None else platforms
        for stage in range(len(self.seed.wiring.batch_stages)):
            for platform in platforms:
                platform.flush_stage(stage)
            self.settle()

    def assign_voyage(self, mmsi: int, waypoints, deadline_t: float,
                      base_speed_kn: float | None = None) -> None:
        """Assign a voyage through the seed's sharded router and settle,
        so the twin holds the assignment wherever it lives."""
        self.seed.assign_voyage(mmsi, waypoints, deadline_t,
                                base_speed_kn=base_speed_kn)
        self.settle()

    def tick(self, dt_s: float) -> None:
        """Advance the shared wall clock, running every node's heartbeat /
        failure-detection tick along the way.

        The jump is subdivided into heartbeat-interval steps with frame
        delivery between them — one big step would silence *live* nodes
        past the failure thresholds too (their heartbeats only travel when
        the hub is pumped) and falsely down them.
        """
        step = self.cluster_config.heartbeat_interval_s
        remaining = dt_s
        while remaining > 0:
            self.clock.advance(min(step, remaining))
            for node in self.nodes:
                node.tick()
            self.settle()
            remaining -= step

    def kill(self, index: int) -> str:
        """Crash a node abruptly: its frames are dropped and peers find out
        through the failure detector."""
        if index == 0:
            raise ValueError("killing the seed would take the broker with "
                             "it; kill a worker node instead")
        node = self.nodes.pop(index)
        platform = self.platforms.pop(index)
        self.hub.disconnect(node.node_id)
        node._closed = True
        platform_id = node.node_id
        return platform_id

    def restart(self, node_id: str) -> DistributedPlatform:
        """Bring a previously-killed node back under its *original* id.

        The rejoin is a fresh incarnation (empty actor state, new
        membership entry); peers that declared the old incarnation DOWN
        re-admit it and the coordinator reshuffles shards back. Vessel
        history is rebuilt by the seed's post-handoff replay.
        """
        if any(n.node_id == node_id for n in self.nodes):
            raise ValueError(f"{node_id} is already running")
        platform = self._spawn_node(node_id, is_seed=False)
        seed = self.nodes[0]
        platform.node.join(seed.node_id, seed.transport.address)
        self.settle()
        return platform

    # -- elastic scaling ---------------------------------------------------------------

    def add_node(self, node_id: str | None = None) -> DistributedPlatform:
        """Grow the cluster live: spawn a fresh worker and join it.

        The coordinator reshuffles shards onto the newcomer with
        state-preserving handoff; the seed then serves a suffix-only
        replay for records that raced the migration.
        """
        if node_id is None:
            used = {n.node_id for n in self.nodes}
            i = len(self.nodes)
            while f"node-{i:02d}" in used:
                i += 1
            node_id = f"node-{i:02d}"
        return self.restart(node_id)

    def drain(self, node_id: str) -> str:
        """Gracefully retire a worker: announce ``Draining`` so the
        coordinator evacuates its shards (live state transfer), serve the
        suffix replay, then let the empty node leave. Returns the retired
        node id."""
        index = next((i for i, n in enumerate(self.nodes)
                      if n.node_id == node_id), None)
        if index is None:
            raise ValueError(f"unknown node {node_id}")
        if index == 0:
            raise ValueError("the seed node cannot drain (it owns the "
                             "broker and the ingestion service)")
        node = self.nodes[index]
        platform = self.platforms[index]
        node.drain()
        self.settle()
        replayed = self.seed.replay_if_needed()
        if replayed:
            self.settle()
        # A graceful scale-in must not lose what the node durably wrote
        # (its event logs and last state rows live in its own KV): flush
        # its writer pool, then fold the KV contents into the seed. The
        # entity actors migrated out with their dedup state intact, so
        # nothing will ever re-emit these events.
        self.flush_writers([platform])
        self.seed.absorb_outputs(platform.export_outputs())
        node.leave()
        self.settle()
        self.nodes.pop(index)
        platform = self.platforms.pop(index)
        self.hub.disconnect(node.node_id)
        platform.shutdown()
        return node.node_id

    def autoscale_step(self) -> dict | None:
        """Execute the leader's pending autoscaling recommendation, if
        any: ``add`` spawns a worker, ``drain`` retires the named one.
        Returns the executed decision (with the affected node id) or
        None."""
        for node in self.nodes:
            decision = node.rebalancer.autoscaler.take_decision()
            if decision is None:
                continue
            if decision["action"] == "add":
                decision["node_id"] = self.add_node().node.node_id
            else:
                self.drain(decision["node_id"])
            return decision
        return None

    # -- checkpointed recovery ---------------------------------------------------------

    def checkpoint(self, directory: str | None = None) -> ClusterCheckpoint:
        """Capture a recovery anchor at a quiescent boundary.

        Flushes every writer's micro-batch first so the KV snapshots hold
        everything processed so far, then captures per-node KV + entity
        state together with the seed's committed stream offsets. Pass
        ``directory`` to also persist it (``checkpoint.pkl``).
        """
        self.flush_writers()   # settles the cluster as a side effect
        checkpoint = capture_checkpoint(self.platforms)
        if directory is not None:
            write_checkpoint(checkpoint, directory)
        return checkpoint

    def recover(self, node_id: str,
                checkpoint: ClusterCheckpoint | str
                ) -> tuple[DistributedPlatform, int]:
        """Bring a killed node back from a checkpoint.

        Instead of :meth:`restart`'s rebuild-by-replay, the recovery path
        (1) restarts the node and suppresses the post-handoff bounded
        replay, (2) restores the node's KV store from its snapshot,
        (3) routes every checkpointed entity state through the sharded
        routers as :class:`RestoreState` (actors adopt only what is newer
        than their own state, so entities rebuilt elsewhere keep theirs),
        and (4) replays only the stream **suffix** past the checkpointed
        offsets. Returns ``(platform, replayed_record_count)``.
        """
        if isinstance(checkpoint, str):
            checkpoint = load_checkpoint(checkpoint)
        seed = self.seed
        t0 = self.clock.now
        platform = self.restart(node_id)
        # The checkpoint replaces the generic post-handoff replay.
        seed._replays_done = seed._replay_generation
        seed._suffix_offsets = None

        node_checkpoint = checkpoint.node(node_id)
        if node_checkpoint is not None:
            platform.kvstore.restore_state(node_checkpoint.kv_state)
        routers = {"vessel": seed.wiring.vessel_router,
                   "cell": seed.wiring.cell_router,
                   "collision": seed.wiring.collision_router}
        restored = 0
        # Every checkpointed entity is offered back through normal routing:
        # shards may sit anywhere after the kill/restart reshuffles, and
        # the adopt-if-newer guards make stale offers a no-op.
        for node_ckpt in checkpoint.nodes:
            for entity, key, state in node_ckpt.entities:
                routers[entity].tell(key, RestoreState(
                    entity=entity, key=key, state=state))
                restored += 1
        self.settle()
        replayed = seed.replay_from_offsets(checkpoint.offsets)
        self.settle()
        self.flush_writers()
        if seed.telemetry is not None:
            registry = seed.telemetry.registry
            registry.counter("recoveries_total").inc()
            registry.gauge("recovery_duration_seconds").set(
                self.clock.now - t0)
            registry.gauge("recovery_replayed_records").set(replayed)
            registry.gauge("recovery_entities_restored").set(restored)
        return platform, replayed

    # -- cluster-wide views ------------------------------------------------------------

    def vessel_distribution(self) -> dict[str, int]:
        return {p.node.node_id: p.vessel_count for p in self.platforms}

    @property
    def total_vessels(self) -> int:
        return sum(p.vessel_count for p in self.platforms)

    def event_count(self, kind: str) -> int:
        return sum(p.event_count(kind) for p in self.platforms)

    def stats(self) -> list[dict]:
        return [p.stats() for p in self.platforms]

    def telemetry_snapshot(self) -> dict:
        """Cluster-wide telemetry: per-node snapshots plus the cross-node
        trace merge (hops ordered by timestamp/stage) and the subset of
        traces that completed the ingest -> vessel -> cell pipeline across
        at least two nodes."""
        per_node = {p.node.node_id: p.telemetry_snapshot()
                    for p in self.platforms}
        merged = merge_traces(
            {node_id: snap.get("traces", {})
             for node_id, snap in per_node.items() if snap.get("enabled")})
        min_nodes = 2 if len(self.platforms) > 1 else 1
        return {
            "nodes": per_node,
            "traces_merged": merged,
            "traces_complete": complete_traces(merged, min_nodes=min_nodes),
        }

    def shutdown(self) -> None:
        for platform in self.platforms:
            platform.shutdown()
