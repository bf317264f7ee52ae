"""Cross-node trace propagation for the message pipeline.

A *trace* follows one sampled AIS position through the platform: the
ingestion service assigns a ``trace_id`` derived from the broker record's
``(partition, offset)`` identity, and the id rides every message the
report causes — on :class:`~repro.actors.actor.Envelope` inside a node and
on :class:`~repro.cluster.protocol.WireEnvelope` across nodes (the wire
codec carries it in the envelope head).

Propagation is implicit: the runtime keeps the *current* trace in a
thread-local while a traced message is being processed, and
``ActorRef.tell`` stamps outgoing envelopes from it — so actor code (the
vessel fan-out, the cell alert paths) needs no signature changes.

Each node appends *hops* to its :class:`TraceLog`; hop timestamps come
from the node's injectable clock, so under ``repro.sim``'s virtual clock
traces are byte-for-byte deterministic per seed.
:func:`merge_traces` stitches per-node snapshots into cluster-wide hop
sequences, and :func:`complete_traces` selects those that tell the full
ingest -> forecast -> event story across at least two nodes.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

#: Stage recorded by the ingestion service when it assigns a trace.
STAGE_INGEST = "ingest"


class _Current(threading.local):
    #: The class default answers every thread that never set a trace,
    #: without the failed attribute lookup a ``getattr`` default costs on
    #: each ``tell``.
    trace_id: int | None = None


_current = _Current()


def current_trace() -> int | None:
    """The trace id of the message being processed on this thread."""
    return _current.trace_id


def set_current_trace(trace_id: int | None) -> None:
    _current.trace_id = trace_id


def clear_current_trace() -> None:
    _current.trace_id = None


class TraceLog:
    """One node's bounded store of trace hops.

    A hop records where (``node``), what (``stage`` — the actor entity
    that processed the message, or ``"ingest"``), and when (``t`` from the
    injectable clock), plus the queue and processing delay the runtime
    measured. ``seq`` is a per-node monotonic tiebreaker so merged hop
    orders stay stable when virtual time stands still.
    """

    def __init__(self, node_id: str = "local",
                 clock: Callable[[], float] = time.monotonic,
                 max_traces: int = 256, max_hops_per_trace: int = 64) -> None:
        self.node_id = node_id
        self.clock = clock
        self.max_traces = max_traces
        self.max_hops_per_trace = max_hops_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[int, list[dict]]" = OrderedDict()
        self.hops_recorded = 0
        self.hops_dropped = 0
        self._seq = 0

    def record(self, trace_id: int, stage: str,
               queue_s: float | None = None,
               proc_s: float | None = None) -> None:
        hop = {"stage": stage, "node": self.node_id, "t": self.clock()}
        if queue_s is not None:
            hop["queue_s"] = queue_s
        if proc_s is not None:
            hop["proc_s"] = proc_s
        with self._lock:
            hops = self._traces.get(trace_id)
            if hops is None:
                if len(self._traces) >= self.max_traces:
                    # Evict the oldest trace: recent traces diagnose the
                    # current state; the registry keeps the aggregates.
                    self._traces.popitem(last=False)
                hops = self._traces[trace_id] = []
            if len(hops) >= self.max_hops_per_trace:
                self.hops_dropped += 1
                return
            hop["seq"] = self._seq
            self._seq += 1
            hops.append(hop)
            self.hops_recorded += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def snapshot(self) -> dict:
        """``{trace_id(str): [hop, ...]}`` — JSON-able (string keys, plain
        dict hops), hop lists copied."""
        with self._lock:
            return {str(trace_id): [dict(hop) for hop in hops]
                    for trace_id, hops in self._traces.items()}


def merge_traces(per_node: dict[str, dict]) -> dict[int, list[dict]]:
    """Stitch per-node :meth:`TraceLog.snapshot` payloads into cluster-wide
    traces.

    Hops of one trace are ordered by ``(t, stage_rank, node, seq)``:
    timestamps first (they share one cluster clock in deterministic runs),
    then pipeline stage order so simultaneous virtual-time hops still read
    ingest -> vessel -> cells -> writer.
    """
    stage_rank = {STAGE_INGEST: 0, "vessel": 1, "cell": 2, "vtff": 3, "writer": 4}
    merged: dict[int, list[dict]] = {}
    for node_id in sorted(per_node):
        for trace_key, hops in per_node[node_id].items():
            trace_id = int(trace_key)
            merged.setdefault(trace_id, []).extend(hops)
    for hops in merged.values():
        hops.sort(key=lambda hop: (hop["t"],
                                   stage_rank.get(hop["stage"], 9),
                                   hop["node"], hop.get("seq", 0)))
    return merged


def is_complete(hops: list[dict], min_nodes: int = 2) -> bool:
    """Whether a merged hop list tells the whole pipeline story: an ingest
    hop, a vessel (forecast) hop and a proximity-cell (event) hop, spread
    over at least ``min_nodes`` nodes, with non-decreasing timestamps."""
    stages = {hop["stage"] for hop in hops}
    if STAGE_INGEST not in stages or "vessel" not in stages:
        return False
    if "cell" not in stages:
        return False
    if len({hop["node"] for hop in hops}) < min_nodes:
        return False
    times = [hop["t"] for hop in hops]
    return all(a <= b for a, b in zip(times, times[1:]))


def complete_traces(merged: dict[int, list[dict]],
                    min_nodes: int = 2) -> dict[int, list[dict]]:
    """The subset of :func:`merge_traces` output satisfying
    :func:`is_complete`."""
    return {trace_id: hops for trace_id, hops in merged.items()
            if is_complete(hops, min_nodes=min_nodes)}
