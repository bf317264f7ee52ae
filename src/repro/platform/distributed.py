"""N platform nodes over a deterministic loopback hub, in one process.

:class:`LoopbackCluster` is cluster *lifecycle* — spawn, kill, restart,
drain, checkpoint, recover, tick — around N
:class:`~repro.platform.pipeline.Platform` nodes, each built by
:func:`~repro.platform.launcher.build_node` on a hub transport; everything
a node does is the platform's business. It is the harness behind the
cluster tests, the sim campaigns and ``bench/``'s ``cluster4_svrf``
workload. The same ``build_node`` starts a node as its own OS process over
TCP (``python -m repro.platform.launcher``; ``examples/cluster_over_tcp.py``).
"""

from __future__ import annotations

from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    LoopbackHub,
    VirtualClock,
    run_cluster_until_idle,
)
from repro.models.kinematic import LinearKinematicModel
from repro.platform.checkpoint import (
    ClusterCheckpoint,
    capture_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.platform.config import PlatformConfig
from repro.platform.messages import RestoreState
from repro.platform.pipeline import Platform, flush_barrier
from repro.telemetry import complete_traces, merge_traces


class LoopbackCluster:
    """N deterministic cluster-node :class:`Platform` objects in one process.

    All transports share one :class:`LoopbackHub` and one virtual wall
    clock, so every run — including membership timeouts and shard handoff —
    is exactly reproducible with no threads and no sleeps.
    """

    def __init__(
        self,
        num_nodes: int = 2,
        forecaster_factory=None,
        config: PlatformConfig | None = None,
        cluster_config: ClusterConfig | None = None,
        hub: LoopbackHub | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        # Both the hub and the clock are injectable so repro.sim can swap
        # in its fault-injecting SimHub and share the scenario's timeline.
        self.hub = hub if hub is not None else LoopbackHub()
        self.clock = clock if clock is not None else VirtualClock()
        self.cluster_config = cluster_config or ClusterConfig()
        self.platforms: list[Platform] = []
        self._platform_config = config
        self._forecaster_factory = forecaster_factory or LinearKinematicModel
        # Every node starts, and every join is sent, before the hub's first
        # pump: the hub's frame order (and a SimHub's draws) depend on it.
        for i in range(num_nodes):
            self._start_node(f"node-{i:02d}")
        self.settle()

    def _start_node(self, node_id: str) -> Platform:
        """:func:`build_node` on this hub and clock; every node but the first joins the seed."""
        from repro.platform.launcher import build_node  # not at import: `python -m` runs it

        seed = self.platforms[0].node if self.platforms else None
        platform = build_node(
            node_id,
            self.hub.transport(node_id),
            forecaster=self._forecaster_factory(),
            config=self._platform_config,
            cluster_config=self.cluster_config,
            clock=self.clock,
            join=None if seed is None else (seed.node_id, seed.transport.address),
        )
        self.platforms.append(platform)
        return platform

    @property
    def seed(self) -> Platform:
        return self.platforms[0]

    @property
    def nodes(self) -> list[ClusterNode]:
        return [platform.node for platform in self.platforms]

    # -- driving ---------------------------------------------------------------------

    def settle(self) -> int:
        """Run the whole cluster to quiescence (frames + mailboxes)."""
        return run_cluster_until_idle(self.nodes, self.hub)

    def process_available(self) -> int:
        """Seed-ingest everything published (serving any pending
        post-handoff replay), pump to idle, sync clocks and flush."""
        total = self.seed.ingest_available(self.settle)
        now = self.seed.system.now
        for platform in self.platforms[1:]:
            platform.sync_clock(now)
        self.settle()
        self.flush_writers()
        return total

    def flush_writers(self, platforms=None) -> None:
        """:func:`flush_barrier` over ``platforms`` (default: every
        node), settling the whole cluster between stages."""
        flush_barrier(self.platforms if platforms is None else platforms, self.settle)

    def assign_voyage(
        self, mmsi: int, waypoints, deadline_t: float, base_speed_kn: float | None = None
    ) -> None:
        """Assign a voyage through the seed's sharded router and settle,
        so the twin holds the assignment wherever it lives."""
        self.seed.assign_voyage(mmsi, waypoints, deadline_t, base_speed_kn=base_speed_kn)
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
            raise ValueError(
                "killing the seed would take the broker with it; kill a worker node instead"
            )
        node = self.platforms.pop(index).node
        self.hub.disconnect(node.node_id)  # no frame reaches it again
        return node.node_id

    def restart(self, node_id: str) -> Platform:
        """Bring a previously-killed node back under its *original* id.

        The rejoin is a fresh incarnation (empty actor state, new
        membership entry); peers that declared the old incarnation DOWN
        re-admit it and the coordinator reshuffles shards back. Vessel
        history is rebuilt by the seed's post-handoff replay.
        """
        if any(n.node_id == node_id for n in self.nodes):
            raise ValueError(f"{node_id} is already running")
        platform = self._start_node(node_id)
        self.settle()
        return platform

    # -- elastic scaling ---------------------------------------------------------------

    def add_node(self, node_id: str | None = None) -> Platform:
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
        index = next((i for i, n in enumerate(self.nodes) if n.node_id == node_id), None)
        if index is None:
            raise ValueError(f"unknown node {node_id}")
        if index == 0:
            raise ValueError(
                "the seed node cannot drain (it owns the broker and the ingestion service)"
            )
        node = self.nodes[index]
        platform = self.platforms[index]
        node.drain()
        self.settle()
        if self.seed.replay_if_needed():
            self.settle()
        # A graceful scale-in must not lose what the node durably wrote
        # (its event logs and last state rows live in its own KV): flush
        # its writer, then fold the KV contents into the seed. The
        # entity actors migrated out with their dedup state intact, so
        # nothing will ever re-emit these events.
        self.flush_writers([platform])
        self.seed.kvstore.merge_state(platform.kvstore.snapshot_state())
        node.leave()
        self.settle()
        self.platforms.pop(index)
        self.hub.disconnect(node.node_id)
        platform.shutdown()
        return node.node_id

    # -- checkpointed recovery ---------------------------------------------------------

    def checkpoint(self, directory: str | None = None) -> ClusterCheckpoint:
        """Capture a recovery anchor at a quiescent boundary.

        Flushes every writer's micro-batch first so the KV snapshots hold
        everything processed so far, then captures per-node KV + entity
        state together with the seed's committed stream offsets. Pass
        ``directory`` to also persist it (``checkpoint.pkl``).
        """
        self.flush_writers()  # settles the cluster as a side effect
        checkpoint = capture_checkpoint(self.platforms)
        if directory is not None:
            write_checkpoint(checkpoint, directory)
        return checkpoint

    def recover(self, node_id: str, checkpoint: ClusterCheckpoint | str) -> tuple[Platform, int]:
        """Bring a killed node back from a checkpoint.

        Instead of :meth:`restart`'s rebuild-by-replay, the recovery path
        (1) restarts the node, (2) restores its KV store from its snapshot,
        (3) routes every checkpointed entity state through the sharded
        routers as :class:`RestoreState` (actors adopt only what is newer
        than their own state, so entities rebuilt elsewhere keep theirs),
        and (4) replays only the stream **suffix** past the checkpointed
        offsets, which supersedes the post-handoff bounded replay. Returns
        ``(platform, replayed_record_count)``.
        """
        if isinstance(checkpoint, str):
            checkpoint = load_checkpoint(checkpoint)
        seed = self.seed
        t0 = self.clock.now
        platform = self.restart(node_id)
        node_checkpoint = checkpoint.node(node_id)
        if node_checkpoint is not None:
            platform.kvstore.restore_state(node_checkpoint.kv_state)
        restored = 0
        # Every checkpointed entity is offered back through normal routing:
        # shards may sit anywhere after the kill/restart reshuffles, and
        # the adopt-if-newer guards make stale offers a no-op.
        for node_ckpt in checkpoint.nodes:
            for entity, key, state in node_ckpt.entities:
                seed.node.router(entity).tell(
                    key, RestoreState(entity=entity, key=key, state=state)
                )
                restored += 1
        self.settle()
        replayed = seed.replay_from_offsets(checkpoint.offsets)
        self.settle()
        self.flush_writers()
        if seed.telemetry is not None:
            registry = seed.telemetry.registry
            registry.counter("recoveries_total").inc()
            registry.gauge("recovery_duration_seconds").set(self.clock.now - t0)
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
        per_node = {p.node.node_id: p.telemetry_snapshot() for p in self.platforms}
        merged = merge_traces(
            {
                node_id: snap.get("traces", {})
                for node_id, snap in per_node.items()
                if snap.get("enabled")
            }
        )
        min_nodes = 2 if len(self.platforms) > 1 else 1
        return {
            "nodes": per_node,
            "traces_merged": merged,
            "traces_complete": complete_traces(merged, min_nodes=min_nodes),
        }

    def shutdown(self) -> None:
        for platform in self.platforms:
            platform.shutdown()
