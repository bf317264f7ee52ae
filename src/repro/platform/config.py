"""Platform configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PlatformConfig:
    """Tunables of the integrated platform.

    Defaults mirror the paper's deployment: 30-second downsampling before
    the forecasting model. What the deployment never varies (event-cell
    resolutions, forecast fan-out rings, proximity and collision
    thresholds, flow grid, watchdog gaps, planner geometry) is a constant
    beside the code that reads it, not a field here.
    """

    #: Minimum seconds between fixes kept by a vessel actor (Section 4.2).
    downsample_s: float = 30.0
    #: Debounce window, seconds: an encounter is identified by (kind, pair,
    #: event time // this), and the pair's owner vessel records each once.
    event_debounce_s: float = 900.0
    #: Execute the pending pooled forecast batch once it holds this many
    #: vessels (mirrors ``writer_batch_max_ops``).
    forecast_batch_max: int = 256
    #: Execute a partial pooled batch after this much virtual time
    #: (mirrors ``writer_batch_linger_s``). 0 disables the timer.
    forecast_linger_s: float = 0.5
    #: Broker topic carrying inbound AIS position reports.
    ais_topic: str = "ais.positions"
    #: Number of partitions for the AIS topic.
    ais_partitions: int = 8
    #: Record per-message processing metrics (Figure 6 instrumentation).
    record_metrics: bool = False
    #: Attach the :mod:`repro.telemetry` registry + trace log to every
    #: node: dispatch histograms, transport batch metrics, membership
    #: gauges and sampled cross-node traces (see OBSERVABILITY.md).
    record_telemetry: bool = False
    #: Trace every n-th ingested AIS record (1 = every record). Sampling
    #: keys off the broker offset, so the traced set is deterministic.
    trace_sample_every: int = 64
    #: Publish dedicated output streams (the paper's future-work item:
    #: "leverage Kafka topics to produce streams of dedicated system, model
    #: and actor-based outputs"). When enabled the writer actor mirrors
    #: vessel states to ``out.vessel.states`` and events to
    #: ``out.events.{kind}`` on the broker, for external consumers.
    output_topics: bool = False
    #: Flush the node's writer once its pending batch reaches this many KV
    #: operations (mirrors ``BatchingTransport.max_batch_msgs``).
    writer_batch_max_ops: int = 64
    #: Flush a partial writer batch after this much virtual time
    #: (mirrors ``BatchingTransport.linger_s``). 0 disables the timer.
    writer_batch_linger_s: float = 0.5
    #: Publish every writer flush batch on pub/sub channel ``repl:flush``
    #: so ``repro.serving`` read replicas can follow the primary without
    #: touching its store (see SERVING.md). Off by default: the serving
    #: tier opts in.
    serving_replica_feed: bool = False
    #: Enable the voyage-optimization subsystem: a per-node weather field
    #: issuing forecasts on an update cycle, a fuel model, and the pooled
    #: :class:`~repro.platform.route_optimizer.RouteOptimizerService`
    #: replanning assigned voyages on a rolling horizon (see VOYAGE.md).
    voyage_optimization: bool = False
    #: Seed of the node's :class:`ForecastingWeatherField` (truth +
    #: climatology). Identical on every node by construction.
    weather_seed: int = 0
    #: Peak wind the synthetic truth/climatology fields can produce.
    weather_max_wind_mps: float = 18.0
    #: Replan an assigned voyage when stream time crosses a multiple of
    #: this cadence (bucket-quantised, so the plan sequence is independent
    #: of batching, crashes and migrations).
    voyage_replan_cadence_s: float = 21_600.0
    #: Execute the pending pooled planning batch at this many vessels.
    voyage_batch_max: int = 64
    #: Execute a partial planning batch after this much virtual time.
    voyage_linger_s: float = 0.5
    #: Emit ``route_divergence`` when a fix sits further than this from
    #: the planned track.
    voyage_divergence_m: float = 5_000.0

    def __post_init__(self) -> None:
        if self.downsample_s < 0:
            raise ValueError("downsample_s must be non-negative")
        if self.trace_sample_every < 1:
            raise ValueError("trace_sample_every must be >= 1")
        if self.forecast_batch_max < 1:
            raise ValueError("forecast_batch_max must be >= 1")
        if self.forecast_linger_s < 0:
            raise ValueError("forecast_linger_s must be non-negative")
        if self.writer_batch_max_ops < 1:
            raise ValueError("writer_batch_max_ops must be >= 1")
        if self.writer_batch_linger_s < 0:
            raise ValueError("writer_batch_linger_s must be non-negative")
        if self.event_debounce_s <= 0:
            raise ValueError("event_debounce_s must be positive")
        if self.voyage_replan_cadence_s <= 0:
            raise ValueError("voyage_replan_cadence_s must be positive")
        if self.voyage_batch_max < 1:
            raise ValueError("voyage_batch_max must be >= 1")
        if self.voyage_linger_s < 0:
            raise ValueError("voyage_linger_s must be non-negative")
        if self.voyage_divergence_m <= 0:
            raise ValueError("voyage_divergence_m must be positive")
