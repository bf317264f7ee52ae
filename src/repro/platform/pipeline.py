"""Platform assembly: broker + actors + store + API in one object.

:class:`Platform` builds the full Figure 2 topology. Typical use::

    platform = Platform(forecaster=svrf_model)
    platform.publish_messages(messages)      # or publish_nmea(sentences)
    platform.process_available()             # ingest + run actors to idle
    state = platform.api.vessel_state(mmsi)
    events = platform.api.recent_events("collision")

The same class is one node of a cluster: ``Platform(node=cluster_node,
is_seed=...)`` shards the vessel actors and the proximity and collision
cells over the cluster (consistent-hash shards, exactly Akka
cluster sharding's role in the paper) while the writer and flow actors stay
node-local and the forecasting model is mounted **once per node** ("the
model is mounted only once in memory for each computational node", Section
3). The seed
node runs the broker and the ingestion service; after a node loss it
replays the tail of every AIS partition from the committed offsets
(:meth:`Consumer.seek`) so reassigned vessel actors rebuild their history
windows — the loss window is then only what the dead node had accepted but
not yet processed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ContextManager, Iterable, Sequence

from repro.actors import ActorSystem, KeyRouter
from repro.ais.fleet import MessageBatch
from repro.ais.message import AISMessage, encode_nmea
from repro.kvstore import KeyValueStore, PubSub
from repro.models.base import RouteForecaster
from repro.models.kinematic import LinearKinematicModel
from repro.platform.api import MiddlewareAPI
from repro.platform.cell_actor import CollisionCellRouter, FlowActor, ProximityCellTable
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.hexgrid import cell_block
from repro.platform.config import PlatformConfig
from repro.platform.forecast_service import ForecastService
from repro.platform.ingestion import IngestionService
from repro.platform.messages import VoyageAssigned
from repro.platform.vessel_actor import VesselActor
from repro.platform.writer_actor import REPL_FLOW_CHANNEL, WriterActor, WriterRef
from repro.streams import Broker, PositionBlock, Producer, TopicConfig
from repro.telemetry import MetricsRecorder, Telemetry

if TYPE_CHECKING:
    from repro.cluster.node import ClusterNode


@dataclass
class PlatformWiring:
    """Shared references handed to every actor factory.

    The forecaster here is the paper's "mounted only once in memory"
    model instance: one object serving every vessel actor.
    """

    config: PlatformConfig
    system: ActorSystem
    broker: Broker
    kvstore: KeyValueStore
    pubsub: PubSub
    forecaster: RouteForecaster
    vessel_router: KeyRouter | None = field(init=False, default=None)
    cell_router: KeyRouter | None = field(init=False, default=None)
    collision_router: KeyRouter | None = field(init=False, default=None)
    #: This node's proximity- and collision-cell tables: ``cell_router`` and
    #: ``collision_router`` themselves on a standalone platform, their
    #: local legs on a cluster node.
    proximity_cells: ProximityCellTable | None = field(init=False, default=None)
    collision_cells: CollisionCellRouter | None = field(init=False, default=None)
    writer_ref: WriterRef | None = field(init=False, default=None)
    flow_ref: object = field(init=False, default=None)
    #: The pooled batched-inference service: the one way a forecast is made.
    forecast_service: ForecastService | None = field(init=False, default=None)
    #: Voyage-optimization trio (None unless ``voyage_optimization``):
    #: the node's ForecastingWeatherField, its FuelModel, and the pooled
    #: RouteOptimizerService replanning assigned voyages.
    weather: object = field(init=False, default=None)
    fuel_model: object = field(init=False, default=None)
    route_optimizer: object = field(init=False, default=None)
    #: The cluster node's :meth:`~repro.cluster.node.ClusterNode.outbox`
    #: scope, opened around ingestion dispatch and the forecast flush; a
    #: standalone platform's does nothing.
    outbox: Callable[[], ContextManager] = field(init=False, default=nullcontext)
    #: Encounter hits the owner vessel dropped as older than its marks
    #: window (one bucket before the newest it recorded).
    late_hits_dropped: int = field(init=False, default=0)

    @property
    def batch_stages(self) -> tuple:
        """The node's micro-batch owners in drain order (None: stage
        disabled). A flush barrier walks this stage by stage, calling
        ``flush()`` and settling after each: forecast replies emit the
        deferred vessel state updates and plan replies emit voyage events,
        so both must land before the writer flushes — or those late writes
        would sit behind an already-consumed flush until a linger fires."""
        return (self.forecast_service, self.route_optimizer, self.writer_ref)


#: After a shard owner died, the seed re-dispatches this many records per
#: AIS partition, counted back from the committed offset.
REPLAY_RECORDS_PER_PARTITION = 500
#: Default bound on a replica feed subscription created via
#: :meth:`Platform.subscribe_replication`.
SERVING_FEED_MAXLEN = 10_000
#: e-folding time of weather-forecast degradation toward climatology.
WEATHER_DEGRADATION_TAU_S = 43_200.0

#: Broker topics mirroring the writer's output for external consumers
#: (``PlatformConfig.output_topics``): every accepted vessel state, and
#: one topic per event kind under the prefix.
OUTPUT_STATE_TOPIC = "out.vessel.states"
OUTPUT_EVENT_TOPIC_PREFIX = "out.events"


def create_topics(broker: Broker, config: PlatformConfig) -> None:
    """Create a node's broker topics: the inbound AIS topic and, when
    enabled, the output topics its writer publishes to."""
    broker.create_topic(TopicConfig(config.ais_topic, num_partitions=config.ais_partitions))
    if config.output_topics:
        broker.create_topic(TopicConfig(OUTPUT_STATE_TOPIC, num_partitions=4))
        kinds = ("proximity", "collision", "switchoff")
        if config.voyage_optimization:
            kinds += VOYAGE_EVENT_KINDS
        for kind in kinds:
            broker.create_topic(
                TopicConfig(f"{OUTPUT_EVENT_TOPIC_PREFIX}.{kind}", num_partitions=1)
            )


def build_route_optimizer(wiring: PlatformWiring):
    """Wire the voyage-optimization subsystem when enabled.

    Builds the node's forecast-issuing weather field and fuel model
    (pure functions of the config, hence identical on every node) and
    the pooled :class:`RouteOptimizerService`. Returns the service or
    None when disabled.
    """
    config = wiring.config
    if not config.voyage_optimization:
        return None
    from repro.models.fuel import FuelModel
    from repro.platform.route_optimizer import RouteOptimizerService
    from repro.weather.forecast import ForecastingWeatherField

    # The field's default update cycle is the exemplar's 6-hourly wind.
    wiring.weather = ForecastingWeatherField(
        seed=config.weather_seed,
        degradation_tau_s=WEATHER_DEGRADATION_TAU_S,
        max_wind_mps=config.weather_max_wind_mps,
    )
    wiring.fuel_model = FuelModel()
    return RouteOptimizerService(wiring)


def wire_node(
    system: ActorSystem, config: PlatformConfig, forecaster: RouteForecaster | None, register_entity
) -> PlatformWiring:
    """Build one node's share of the Figure 2 topology on ``system``: the
    broker with its topics, the KV store and pub/sub, the three entity
    routers, the writer, the flow actor and the pooled services.

    ``register_entity(entity, factory, local_router=None, shard_key=None)``
    returns the router for one entity type — the only thing a single-node
    platform (plain :class:`KeyRouter`) and a cluster node (its sharded
    router, delivering locally through ``local_router`` when given) do
    differently. Cell-keyed entities shard by the cell's block, so one
    forecast's dilated cells mostly live on one node.
    """
    broker = Broker()
    create_topics(broker, config)
    wiring = PlatformWiring(
        config=config,
        system=system,
        broker=broker,
        kvstore=KeyValueStore(),
        pubsub=PubSub(),
        forecaster=forecaster or LinearKinematicModel(),
    )
    # Figure 6 plots per-AIS-message processing time against the number
    # of distinct MMSIs: sample only vessel-actor deliveries, with this
    # node's vessel-actor count as the population figure.
    system.population_fn = lambda: len(wiring.vessel_router)
    system.metrics_filter = lambda name: name.startswith("vessel-")

    wiring.vessel_router = register_entity("vessel", lambda mmsi: VesselActor(mmsi, wiring))
    wiring.proximity_cells = ProximityCellTable(wiring)
    wiring.cell_router = register_entity(
        "cell", None, local_router=wiring.proximity_cells, shard_key=cell_block
    )
    wiring.collision_cells = CollisionCellRouter(wiring)
    wiring.collision_router = register_entity(
        "collision", None, local_router=wiring.collision_cells, shard_key=cell_block
    )
    system.spawn(lambda: WriterActor(wiring), "writer")
    wiring.writer_ref = WriterRef("writer", system)
    wiring.flow_ref = system.spawn(lambda: FlowActor(wiring), "vtff")
    wiring.forecast_service = ForecastService(wiring)
    wiring.route_optimizer = build_route_optimizer(wiring)
    return wiring


def flush_barrier(platforms, settle) -> None:
    """The flush barrier over ``platforms``: each of
    ``wiring.batch_stages`` in turn on every node, ``settle()`` after each
    stage — so KV reads observe everything processed so far, including
    the writes that ride on forecast and plan replies. A standalone
    platform settles its own actor system; a cluster driver settles the
    whole cluster."""
    for stage in range(len(platforms[0].wiring.batch_stages)):
        for platform in platforms:
            platform.flush_stage(stage)
        settle()


class Platform:
    """One node of the maritime digital-twin platform — the only node class.

    Standalone (no ``node``) it builds its own actor system and plain
    :class:`KeyRouter` entity routers: all of Figure 2 in one process.
    Handed a :class:`~repro.cluster.node.ClusterNode` it adopts
    that node's system and sharded routers instead, registers the
    platform control ops, and — on the seed, the one node that runs the
    ingestion service — answers every shard-table change with a stream
    replay (:meth:`replay_if_needed`). Everything else (the wiring, the
    flush barrier, this façade) is the same object either way.
    """

    def __init__(
        self,
        forecaster: RouteForecaster | None = None,
        config: PlatformConfig | None = None,
        *,
        node: "ClusterNode | None" = None,
        is_seed: bool = True,
    ) -> None:
        self.config = config or PlatformConfig()
        self.node = node
        self.is_seed = is_seed
        if node is None:
            self.system = ActorSystem(name="maritime")

            def register_entity(entity, factory, local_router=None, shard_key=None):
                # ``is None``, not truthiness: a router with no keys is falsy.
                if local_router is None:
                    local_router = KeyRouter(self.system, entity, factory)
                return local_router

            # Telemetry on virtual time keeps replays identical.
            label, clock = "local", lambda: self.system.now
        else:
            self.system = node.system
            register_entity = node.register_entity
            label, clock = node.node_id, node.clock
        if self.config.record_metrics:
            self.system.metrics = MetricsRecorder()

        self.wiring = wiring = wire_node(self.system, self.config, forecaster, register_entity)
        if node is not None:
            wiring.outbox = node.outbox
        self.broker = wiring.broker
        self.kvstore = wiring.kvstore
        self.pubsub = wiring.pubsub
        self.producer = Producer(self.broker)
        #: The broker -> vessel actor leg; None off-seed (a cluster has
        #: one ingester, and a standalone platform is its own seed).
        self.ingestion = IngestionService(wiring) if is_seed else None
        self.api = MiddlewareAPI(
            self.kvstore, lambda window: self.flow_snapshot().predicted_flow(window), self.pubsub
        )

        #: The node's registry + trace log (``record_telemetry``): writer,
        #: forecast-service and warehouse counters all land here.
        self.telemetry: Telemetry | None = None
        if self.config.record_telemetry:
            self.telemetry = self.system.telemetry = Telemetry(
                label, clock=clock, trace_sample_every=self.config.trace_sample_every
            )
            if node is not None:
                node.bind_telemetry(self.telemetry)  # transport, membership
            if is_seed:
                self.telemetry.registry.gauge("broker_consumer_lag", fn=lambda: self.ingestion.lag)

        self._replay_generation = 0
        self._replays_done = 0
        # Committed offsets captured at the first pending *no-loss* table
        # change (rebalance/join/drain). None means any pending replay must
        # use the bounded-depth path (a node died with unprocessed input).
        self._suffix_offsets: dict[int, int] | None = None
        if node is not None:
            if is_seed:
                # Feed the broker backlog into this node's LoadReports so
                # the leader's rebalancer sees ingest pressure, not just
                # actor load.
                node.consumer_lag_fn = lambda: self.ingestion.lag
                node.on_table_change.append(self._on_table_change)
            node.register_control("platform_stats", lambda params: self.stats())
            node.register_control("telemetry_snapshot", lambda params: self.telemetry_snapshot())
            node.register_control("sync_clock", lambda params: self.sync_clock(params["now"]))
            node.register_control("flush_stage", lambda params: self.flush_stage(params["stage"]))

    # -- publishing (seed only) -----------------------------------------------------

    def _require_seed(self) -> None:
        if not self.is_seed:
            raise RuntimeError("only the seed node ingests the AIS stream")

    def publish_messages(self, messages: Iterable[AISMessage]) -> int:
        """Feed position reports into the AIS topic (keyed by MMSI)."""
        self._require_seed()
        count = 0
        for msg in messages:
            self.producer.send(self.config.ais_topic, msg.mmsi, msg, msg.t)
            count += 1
        return count

    def publish_batch(self, batch: MessageBatch) -> int:
        """Feed a struct-of-arrays batch through the columnar fast lane:
        the rows travel the broker as one :class:`PositionBlock` record
        per touched partition (no per-row message objects until the
        ingestion service expands them)."""
        self._require_seed()
        block = PositionBlock(
            mmsi=batch.mmsi, t=batch.t, lat=batch.lat, lon=batch.lon, sog=batch.sog, cog=batch.cog
        )
        return self.producer.send_block(self.config.ais_topic, block)

    def publish_nmea(self, sentences: Sequence[tuple[str, float]]) -> int:
        """Feed raw ``(sentence, receiver_time)`` pairs (the realistic
        ingest path — parsing happens in the ingestion service)."""
        self._require_seed()
        for sentence, t in sentences:
            # Raw sentences are keyed by content hash (the MMSI is not
            # known until the ingestion service decodes the payload, as in
            # a real receiver feed). Cross-partition reordering is tolerated
            # downstream: vessel actors drop stale fixes by timestamp.
            self.producer.send(self.config.ais_topic, sentence, sentence, t)
        return len(sentences)

    @staticmethod
    def to_nmea(messages: Iterable[AISMessage]) -> list[tuple[str, float]]:
        """Encode messages as the wire format ``publish_nmea`` accepts."""
        return [(encode_nmea(m), m.t) for m in messages]

    # -- processing ------------------------------------------------------------------

    def settle(self) -> None:
        """Run this node's actors to idle (a cluster node's actor drain)."""
        (self.system if self.node is None else self.node).run_until_idle()

    def ingest_available(self, settle=None) -> int:
        """Drain the AIS topic into the (possibly remote) vessel actors,
        calling ``settle()`` after every poll, then serve any replay a
        shard-table change left pending. This is the one poll -> settle
        loop: a standalone platform passes its own :meth:`settle`, the
        loopback harness the cluster-wide one, and a TCP seed its node's
        :meth:`~repro.cluster.node.ClusterNode.pump`. Returns the number of
        AIS messages dispatched — replayed records not counted."""
        self._require_seed()
        total = 0
        while True:
            dispatched = self.ingestion.poll_once()
            total += dispatched
            if settle is not None:
                settle()
            if dispatched == 0 and self.ingestion.lag == 0:
                break
        if self.replay_if_needed() and settle is not None:
            settle()
        return total

    def flush_stage(self, stage: int) -> dict:
        """Flush one of this node's ``wiring.batch_stages`` (also the
        ``flush_stage`` control op; flushes are asynchronous, so settle
        afterwards — :func:`flush_barrier` is the full sequence)."""
        owner = self.wiring.batch_stages[stage]
        if owner is not None:
            owner.flush()
        return {"stage": stage}

    def process_available(self) -> int:
        """Ingest everything published so far, run this node's actors to
        idle and flush its micro-batches, so the API sees everything
        processed so far. Returns the number of AIS messages dispatched
        to vessel actors. (Across several nodes the same two steps run
        with a cluster-wide settle: ``LoopbackCluster.process_available``.)
        """
        total = self.ingest_available(self.settle)
        flush_barrier([self], self.settle)
        return total

    # -- replay after a shard-table change (cluster seed) ------------------------------

    def _on_table_change(self, old, new) -> None:
        if old.assignment == new.assignment:
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
            self._suffix_offsets = self.ingestion.committed_offsets()
        self._replay_generation += 1

    @property
    def replay_pending(self) -> bool:
        return self._replay_generation > self._replays_done

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
        offsets = self._suffix_offsets
        if offsets is None:
            offsets = {
                partition: max(0, offset - REPLAY_RECORDS_PER_PARTITION)
                for partition, offset in self.ingestion.committed_offsets().items()
            }
        return self.replay_from_offsets(offsets)

    def replay_from_start(self) -> int:
        """Replay every AIS partition from offset 0 through the normal
        sharded routing path (:meth:`Consumer.seek` to the beginning).

        This is the strongest recovery action the platform offers — and
        the oracle behind the sim harness's no-acknowledged-loss
        invariant: after a full replay, every vessel actor must hold the
        newest acknowledged position regardless of what the network did.
        """
        return self.replay_from_offsets({})

    def replay_from_offsets(self, offsets: dict[int, int]) -> int:
        """Replay only the stream **suffix** past ``offsets`` (partition
        -> first offset to re-dispatch; 0 when absent), decoded by the
        ingestion service exactly like live records. An explicit replay
        supersedes whatever a table change left pending. With the
        per-partition committed offsets a checkpoint recorded this is the
        cheap half of checkpointed recovery: actor state comes from
        snapshots, and only records the checkpoint had not yet covered are
        re-routed."""
        self._require_seed()
        self._replays_done = self._replay_generation
        self._suffix_offsets = None
        return self.ingestion.replay(offsets)

    # -- voyages / housekeeping / clock ------------------------------------------------

    def assign_voyage(
        self,
        mmsi: int,
        waypoints: Sequence[tuple[float, float]],
        deadline_t: float,
        base_speed_kn: float | None = None,
    ) -> None:
        """Assign a voyage to a vessel's twin, wherever it is sharded:
        sail ``waypoints`` (as ``(lat, lon)`` pairs) by ``deadline_t``.
        Requires ``voyage_optimization=True``; the twin replans on the
        configured cadence from then on and emits voyage events through
        the writer."""
        if self.wiring.route_optimizer is None:
            raise RuntimeError("voyage_optimization is disabled in this PlatformConfig")
        self.wiring.vessel_router.tell(
            mmsi,
            VoyageAssigned(
                mmsi=mmsi,
                waypoints=tuple((float(lat), float(lon)) for lat, lon in waypoints),
                deadline_t=deadline_t,
                base_speed_kn=base_speed_kn,
            ),
        )
        self.settle()

    def housekeeping(self) -> None:
        """Prune this node's spatial state: one prune of each cell table
        (memory bound; in a cluster every node housekeeps its own shards).
        A prune sends no message, so nothing is left to settle."""
        self.wiring.proximity_cells.prune(self.system.now)
        self.wiring.collision_cells.prune(self.system.now)

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

    @property
    def proximity_cell_count(self) -> int:
        return len(self.wiring.cell_router)

    @property
    def collision_cell_count(self) -> int:
        return len(self.wiring.collision_router)

    @property
    def actor_count(self) -> int:
        return self.system.active_count

    def event_count(self, kind: str) -> int:
        return self.api.event_count(kind)

    def stats(self) -> dict:
        """This node's entity, writer and event counters, on top of the
        cluster node's routing and membership counters when it has one."""
        writer = self.wiring.writer_ref
        return {
            **(self.node.stats() if self.node is not None else {}),
            "vessels_local": self.vessel_count,
            "cells_local": self.proximity_cell_count,
            "collision_cells_local": self.collision_cell_count,
            "states_written": writer.states_written,
            "events_written": writer.events_written,
            "writer_flushes": writer.flushes,
            "events_proximity": self.event_count("proximity"),
            "events_collision": self.event_count("collision"),
            "late_hits_dropped": self.wiring.late_hits_dropped,
        }

    def telemetry_snapshot(self) -> dict:
        """This node's metrics + trace hops (``{"enabled": False}`` when
        telemetry recording is off)."""
        if self.telemetry is None:
            return {"enabled": False}
        snap = self.telemetry.snapshot()
        snap["enabled"] = True
        return snap

    def flow_snapshot(self):
        """This node's traffic-flow aggregation state (an ``IndirectVTFF``
        over the forecasts of locally-hosted vessel actors)."""
        return self.system.ask_sync(self.wiring.flow_ref, "snapshot")

    # -- serving replication ------------------------------------------------------------

    def subscribe_replication(self, maxlen: int = SERVING_FEED_MAXLEN):
        """A bounded (drop-oldest past ``maxlen``) pub/sub subscription
        carrying the writer's replication feed (``repl:*``) for a
        serving-tier read replica. Requires ``serving_replica_feed=True``
        in the config."""
        if not self.config.serving_replica_feed:
            raise RuntimeError("serving_replica_feed is disabled in this PlatformConfig")
        return self.pubsub.subscribe("repl:*", maxlen=maxlen)

    def publish_flow_snapshot(self, windows: Sequence[int] = (1, 2, 3)) -> None:
        """Replicate the traffic raster: one pub/sub message carrying the
        predicted per-cell flow for each window (heat is a function of the
        count, so readers classify it). Driven by the platform owner at
        its own cadence (the serving tier reads the replicated raster,
        never the flow actor)."""
        vtff = self.flow_snapshot()
        flow = {window: vtff.predicted_flow(window) for window in windows}
        self.pubsub.publish(REPL_FLOW_CHANNEL, {"t": self.system.now, "flow": flow})

    # -- warehouse compaction -----------------------------------------------------------

    def compact_warehouse(self, compactor) -> dict:
        """Fold everything journaled so far into ``compactor``'s warehouse.

        The platform-side compaction hook: flushes the writer (so
        every processed fix/event has reached the journal), settles the
        actor system, then tails the store's persistence journal past the
        warehouse cursor. Requires a persistence-bound kvstore. When the
        platform records telemetry and the compactor has no registry yet,
        the platform's registry is attached so warehouse counters land
        beside the writer/forecast metrics.
        """
        persistence = self.kvstore.persistence
        if persistence is None:
            raise RuntimeError(
                "compact_warehouse requires a kvstore with bound "
                "persistence (KeyValueStore(persistence=...))"
            )
        self.wiring.writer_ref.flush()
        self.settle()
        if self.telemetry is not None and compactor._instruments is None:
            compactor.bind_registry(self.telemetry.registry)
        return compactor.compact_persistence(persistence)

    def shutdown(self) -> None:
        if self.node is not None:
            self.node.shutdown()  # closes the transport, then the system
        else:
            self.system.stop_all()
