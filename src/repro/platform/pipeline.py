"""Platform assembly: broker + actors + store + API in one object.

:class:`Platform` builds the full Figure 2 topology. Typical use::

    platform = Platform(forecaster=svrf_model)
    platform.publish_messages(messages)      # or publish_nmea(sentences)
    platform.process_available()             # ingest + run actors to idle
    state = platform.api.vessel_state(mmsi)
    events = platform.api.recent_events("collision")
"""

from __future__ import annotations

import inspect

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.actors import ActorSystem, KeyRouter
from repro.ais.fleet import MessageBatch
from repro.ais.message import AISMessage, encode_nmea
from repro.kvstore import KeyValueStore, PubSub
from repro.models.base import RouteForecaster
from repro.models.kinematic import LinearKinematicModel
from repro.platform.api import MiddlewareAPI
from repro.platform.cell_actor import (
    CollisionCellActor,
    CollisionCellRouter,
    FlowActor,
    ProximityCellActor,
)
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.platform.config import PlatformConfig
from repro.platform.ingestion import IngestionService
from repro.platform.messages import PruneTick, VoyageAssigned
from repro.platform.vessel_actor import VesselActor
from repro.platform.writer_actor import WriterPool
from repro.streams import Broker, PositionBlock, Producer, TopicConfig
from repro.telemetry import Telemetry


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
    forecaster_min_history: int
    #: Whether the forecaster accepts ``pad=True`` for short histories.
    supports_padding: bool = False
    vessel_router: KeyRouter | None = field(init=False, default=None)
    cell_router: KeyRouter | None = field(init=False, default=None)
    collision_router: KeyRouter | None = field(init=False, default=None)
    writer_ref: object = field(init=False, default=None)
    flow_ref: object = field(init=False, default=None)
    #: Pooled batched-inference service (None: synchronous per-vessel
    #: forecasts, either by configuration or a batch-less forecaster).
    forecast_service: object = field(init=False, default=None)
    #: Voyage-optimization trio (None unless ``voyage_optimization``):
    #: the node's ForecastingWeatherField, its FuelModel, and the pooled
    #: RouteOptimizerService replanning assigned voyages.
    weather: object = field(init=False, default=None)
    fuel_model: object = field(init=False, default=None)
    route_optimizer: object = field(init=False, default=None)

    @property
    def batch_stages(self) -> tuple:
        """The node's micro-batch owners in drain order (None: stage
        disabled). A flush barrier walks this stage by stage, calling
        ``flush()`` and settling after each: forecast replies emit the
        deferred vessel state updates and plan replies emit voyage events,
        so both must land before the writers flush — or those late writes
        would sit behind an already-consumed flush until a linger fires."""
        return (self.forecast_service, self.route_optimizer, self.writer_ref)


#: Broker topics mirroring the writers' output for external consumers
#: (``PlatformConfig.output_topics``): every accepted vessel state, and
#: one topic per event kind under the prefix.
OUTPUT_STATE_TOPIC = "out.vessel.states"
OUTPUT_EVENT_TOPIC_PREFIX = "out.events"


def create_topics(broker: Broker, config: PlatformConfig) -> None:
    """Create a node's broker topics: the inbound AIS topic and, when
    enabled, the output topics its writers publish to."""
    broker.create_topic(TopicConfig(
        config.ais_topic, num_partitions=config.ais_partitions))
    if config.output_topics:
        broker.create_topic(TopicConfig(OUTPUT_STATE_TOPIC,
                                        num_partitions=4))
        kinds = ("proximity", "collision", "switchoff")
        if config.voyage_optimization:
            kinds += VOYAGE_EVENT_KINDS
        for kind in kinds:
            broker.create_topic(TopicConfig(
                f"{OUTPUT_EVENT_TOPIC_PREFIX}.{kind}", num_partitions=1))


def build_forecast_service(wiring: PlatformWiring):
    """The pooled inference service when enabled and supported, else None
    (callers fall back to synchronous per-vessel forecasts)."""
    if not wiring.config.forecast_batching:
        return None
    if not hasattr(wiring.forecaster, "forecast_batch"):
        return None
    from repro.platform.forecast_service import ForecastService
    return ForecastService(wiring)


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
    wiring.weather = ForecastingWeatherField(
        seed=config.weather_seed,
        update_cycle_s=config.weather_update_cycle_s,
        degradation_tau_s=config.weather_degradation_tau_s,
        max_wind_mps=config.weather_max_wind_mps)
    wiring.fuel_model = FuelModel()
    return RouteOptimizerService(wiring)


def wire_node(system: ActorSystem, config: PlatformConfig,
              forecaster: RouteForecaster | None,
              register_entity) -> PlatformWiring:
    """Build one node's share of the Figure 2 topology on ``system``: the
    broker with its topics, the KV store and pub/sub, the three entity
    routers, the writer pool, the flow actor and the pooled services.

    ``register_entity(entity, factory, local_router=None)`` returns the
    router for one entity type — the only thing a single-node platform
    (plain :class:`KeyRouter`) and a cluster node (its sharded router,
    delivering locally through ``local_router`` when given) do
    differently.
    """
    broker = Broker()
    create_topics(broker, config)
    forecaster = forecaster or LinearKinematicModel()
    wiring = PlatformWiring(
        config=config, system=system, broker=broker,
        kvstore=KeyValueStore(), pubsub=PubSub(), forecaster=forecaster,
        forecaster_min_history=getattr(forecaster, "min_history", 1),
        supports_padding="pad" in inspect.signature(
            forecaster.forecast).parameters)
    # Figure 6 plots per-AIS-message processing time against the number
    # of distinct MMSIs: sample only vessel-actor deliveries, with this
    # node's vessel-actor count as the population figure.
    system.population_fn = lambda: len(wiring.vessel_router)
    system.metrics_filter = lambda name: name.startswith("vessel-")

    def collision_actor(cell):
        return CollisionCellActor(cell, wiring)

    wiring.vessel_router = register_entity(
        "vessel", lambda mmsi: VesselActor(mmsi, wiring))
    wiring.cell_router = register_entity(
        "cell", lambda cell: ProximityCellActor(cell, wiring))
    wiring.collision_router = register_entity(
        "collision", collision_actor,
        local_router=CollisionCellRouter(system, "collision",
                                         collision_actor, wiring))
    wiring.writer_ref = WriterPool(wiring, config.writer_pool_size)
    wiring.flow_ref = system.spawn(lambda: FlowActor(wiring), "vtff")
    wiring.forecast_service = build_forecast_service(wiring)
    wiring.route_optimizer = build_route_optimizer(wiring)
    return wiring


class Platform:
    """The integrated maritime digital-twin platform."""

    def __init__(self, forecaster: RouteForecaster | None = None,
                 config: PlatformConfig | None = None,
                 mode: str = "deterministic") -> None:
        self.config = config or PlatformConfig()
        self.system = ActorSystem(name="maritime", mode=mode,
                                  record_metrics=self.config.record_metrics)
        if self.config.record_telemetry:
            # Same bundle the distributed node binds: counters from the
            # writer pool, forecast service, and warehouse compaction all
            # land in one registry. Virtual time keeps replays identical.
            self.system.telemetry = Telemetry(
                "local", clock=lambda: self.system.now,
                trace_sample_every=self.config.trace_sample_every)

        def key_router(entity, factory, local_router=None):
            # ``is None``, not truthiness: a router with no keys is falsy.
            if local_router is None:
                local_router = KeyRouter(self.system, entity, factory)
            return local_router

        self.wiring = wiring = wire_node(self.system, self.config,
                                         forecaster, key_router)
        self.broker = wiring.broker
        self.kvstore = wiring.kvstore
        self.pubsub = wiring.pubsub
        self.producer = Producer(self.broker)

        self.ingestion = IngestionService(wiring)
        self.api = MiddlewareAPI(self.kvstore, self.pubsub, self)

    # -- publishing -----------------------------------------------------------------

    def publish_messages(self, messages: Iterable[AISMessage]) -> int:
        """Feed position reports into the AIS topic (keyed by MMSI)."""
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
        block = PositionBlock(mmsi=batch.mmsi, t=batch.t, lat=batch.lat,
                              lon=batch.lon, sog=batch.sog, cog=batch.cog)
        return self.producer.send_block(self.config.ais_topic, block)

    def publish_nmea(self, sentences: Sequence[tuple[str, float]]) -> int:
        """Feed raw ``(sentence, receiver_time)`` pairs (the realistic
        ingest path — parsing happens in the ingestion service)."""
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

    def process_available(self, max_rounds: int = 1_000_000) -> int:
        """Ingest everything published so far and run actors to idle.

        Returns the number of AIS messages dispatched to vessel actors.
        """
        total = 0
        for _ in range(max_rounds):
            dispatched = self.ingestion.poll_once()
            if dispatched == 0 and self.ingestion.lag == 0:
                break
            if self.system.mode == "deterministic":
                self.system.run_until_idle()
            total += dispatched
        if self.system.mode == "threaded":
            self.system.await_idle()
        # Flush barrier, so the API sees everything processed so far.
        for owner in self.wiring.batch_stages:
            if owner is not None:
                owner.flush()
                self._settle()
        return total

    def _settle(self) -> None:
        if self.system.mode == "deterministic":
            self.system.run_until_idle()
        else:
            self.system.await_idle()

    def assign_voyage(self, mmsi: int,
                      waypoints: Sequence[tuple[float, float]],
                      deadline_t: float,
                      base_speed_kn: float | None = None) -> None:
        """Assign a voyage to a vessel's twin: sail ``waypoints`` (as
        ``(lat, lon)`` pairs) by ``deadline_t``. Requires
        ``voyage_optimization=True``; the twin replans on the configured
        cadence from then on and emits voyage events through the writer
        pool."""
        if self.wiring.route_optimizer is None:
            raise RuntimeError(
                "voyage_optimization is disabled in this PlatformConfig")
        self.wiring.vessel_router.tell(mmsi, VoyageAssigned(
            mmsi=mmsi,
            waypoints=tuple((float(lat), float(lon))
                            for lat, lon in waypoints),
            deadline_t=deadline_t, base_speed_kn=base_speed_kn))
        self._settle()

    def housekeeping(self) -> None:
        """Broadcast a prune tick to all spatial actors (memory bound)."""
        now = self.system.now
        tick = PruneTick(now=now)
        for cell in self.wiring.cell_router.known_keys():
            self.wiring.cell_router.tell(cell, tick)
        for cell in self.wiring.collision_router.known_keys():
            self.wiring.collision_router.tell(cell, tick)
        self._settle()

    # -- introspection ----------------------------------------------------------------

    @property
    def vessel_count(self) -> int:
        return len(self.wiring.vessel_router)

    @property
    def cell_actor_count(self) -> int:
        return len(self.wiring.cell_router)

    @property
    def collision_actor_count(self) -> int:
        return len(self.wiring.collision_router)

    @property
    def actor_count(self) -> int:
        return self.system.active_count

    def flow_snapshot(self):
        """The traffic-flow aggregation state (an ``IndirectVTFF``)."""
        return self.system.ask_sync(self.wiring.flow_ref, "snapshot")

    # -- serving replication ------------------------------------------------------------

    def subscribe_replication(self, maxlen: int | None = None):
        """A bounded pub/sub subscription carrying the writer pool's
        replication feed (``repl:*``) for a serving-tier read replica.
        Requires ``serving_replica_feed=True`` in the config."""
        if not self.config.serving_replica_feed:
            raise RuntimeError(
                "serving_replica_feed is disabled in this PlatformConfig")
        if maxlen is None:
            maxlen = self.config.serving_feed_maxlen
        return self.pubsub.subscribe("repl:*", maxlen=maxlen)

    def publish_flow_snapshot(self, windows: Sequence[int] = (1, 2, 3)
                              ) -> None:
        """Replicate the traffic raster: one pub/sub message carrying the
        predicted per-cell flow and heat class for each window. Driven by
        the platform owner at its own cadence (the serving tier reads the
        replicated raster, never the flow actor)."""
        from repro.platform.writer_actor import REPL_FLOW_CHANNEL
        vtff = self.flow_snapshot()
        flow: dict[int, dict[int, int]] = {}
        heat: dict[int, dict[int, str]] = {}
        for window in windows:
            predicted = vtff.predicted_flow(window)
            flow[window] = predicted
            heat[window] = {cell: vtff.grid.classify(count).value
                            for cell, count in predicted.items()}
        self.pubsub.publish(REPL_FLOW_CHANNEL, {
            "t": self.system.now, "flow": flow, "heat": heat})

    # -- warehouse compaction -----------------------------------------------------------

    def compact_warehouse(self, compactor) -> dict:
        """Fold everything journaled so far into ``compactor``'s warehouse.

        The platform-side compaction hook: flushes the writer pool (so
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
                "persistence (KeyValueStore(persistence=...))")
        self.wiring.writer_ref.flush()
        self._settle()
        telemetry = self.system.telemetry
        if telemetry is not None and compactor._instruments is None:
            compactor.bind_registry(telemetry.registry)
        return compactor.compact_persistence(persistence)

    def shutdown(self) -> None:
        self.system.shutdown()
