"""End-to-end telemetry: the metrics registry and trace propagation.

The package has three parts:

* :mod:`~repro.telemetry.registry` — process-wide counters, gauges and
  bounded-reservoir histograms with label support and JSON /
  Prometheus-style snapshots,
* :mod:`~repro.telemetry.trace` — the ``trace_id`` mechanism that follows
  one sampled AIS position ingest -> vessel actor -> forecast fan-out ->
  cell/collision actor -> writer across cluster nodes,
* :mod:`~repro.telemetry.recorder` — the Figure 6 per-message sample
  recorder (``repro.actors`` re-exports it).

:class:`Telemetry` bundles one node's registry, trace log and clock, and
pre-resolves the hot actor-dispatch instruments so the dispatch loop pays
one dict lookup per batch, not per message. Everything timestamps through
the injectable ``clock`` — never wall time directly — so telemetry under
``repro.sim`` is deterministic per seed (enforced by the AST wall-clock
audit).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.telemetry.recorder import MetricsRecorder, MovingAverage
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import (
    STAGE_INGEST,
    TraceLog,
    clear_current_trace,
    complete_traces,
    current_trace,
    is_complete,
    merge_traces,
    set_current_trace,
)


class Telemetry:
    """One node's telemetry bundle: registry + trace log + clock."""

    def __init__(self, node_id: str = "local",
                 clock: Callable[[], float] = time.monotonic,
                 trace_sample_every: int = 64,
                 dispatch_sample_every: int = 8,
                 max_traces: int = 256,
                 reservoir_size: int = 512) -> None:
        if trace_sample_every < 1:
            raise ValueError("trace_sample_every must be >= 1")
        if dispatch_sample_every < 1:
            raise ValueError("dispatch_sample_every must be >= 1")
        self.node_id = node_id
        self.clock = clock
        self.trace_sample_every = trace_sample_every
        self.dispatch_sample_every = dispatch_sample_every
        self._batch_seq = 0
        self.registry = MetricsRegistry(reservoir_size=reservoir_size)
        self.traces = TraceLog(node_id, clock=clock, max_traces=max_traces)
        # Hot actor-dispatch instruments, resolved once.
        self.mailbox_depth = self.registry.histogram("actor_mailbox_depth")
        self.queue_delay = self.registry.histogram(
            "actor_queue_delay_seconds")
        self._entity_instruments: dict[str, tuple[Counter, Histogram]] = {}

    def sample_batch(self) -> bool:
        """Whether this mailbox batch gets depth/timing histograms.

        Every ``dispatch_sample_every``-th batch is sampled (message
        counters stay exact regardless) — with mailbox batches averaging
        a handful of messages, per-batch observation would otherwise cost
        a locked histogram update per message. The increment is
        unsynchronised because only the dispatching thread (the one that
        pumps the node) calls it; the registry's own locks cover readers
        on other threads (a telemetry snapshot, the serving loop).
        """
        self._batch_seq += 1
        return self._batch_seq % self.dispatch_sample_every == 0

    def entity_instruments(self, entity: str) -> tuple[Counter, Histogram]:
        """Per-entity ``(messages counter, processing-seconds histogram)``,
        cached so the dispatch loop resolves labels once per entity."""
        cached = self._entity_instruments.get(entity)
        if cached is None:
            cached = (
                self.registry.counter("actor_messages_total",
                                      {"entity": entity}),
                self.registry.histogram("actor_processing_seconds",
                                        {"entity": entity}),
            )
            self._entity_instruments[entity] = cached
        return cached

    def processing_ms_total(self) -> float:
        """Sampled actor processing time recorded so far across all entity
        types, in milliseconds — the busy-time signal of the cluster's
        :class:`~repro.cluster.protocol.LoadReport`. Histograms sample one
        batch in ``dispatch_sample_every``, so this is a proportional load
        measure, not an exact CPU total; load reports diff consecutive
        readings into per-window deltas."""
        total = 0.0
        for _counter, histogram in self._entity_instruments.values():
            total += histogram.sum
        return total * 1000.0

    def snapshot(self) -> dict:
        """This node's full telemetry state, JSON-able."""
        return {
            "node": self.node_id,
            "metrics": self.registry.snapshot(),
            "traces": self.traces.snapshot(),
        }


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "MovingAverage",
    "STAGE_INGEST",
    "Telemetry",
    "TraceLog",
    "clear_current_trace",
    "complete_traces",
    "current_trace",
    "is_complete",
    "merge_traces",
    "set_current_trace",
]
