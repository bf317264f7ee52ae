"""``fleet_svrf`` and ``cluster4_svrf``: the paper's Figure 6 job.

Both replay the identical seeded global-fleet stream with the S-VRF
forecaster mounted, as a closed loop of one client: a request publishes
the next 200 positions of the stream (about one 30 s stream tick) through
the columnar ``publish_batch`` lane, then calls ``process_available()``,
whose barrier guarantees every position of the request is readable in
the KV store. ``fleet_svrf`` runs it on a single-node ``Platform``;
``cluster4_svrf`` on a four-node ``LoopbackCluster`` with the batching
transport, so the difference between the two is the cluster tax per
position.

The number of requests is fixed at ``--seconds`` times
``REQUESTS_PER_BUDGET_SECOND``: sized so the cluster needs about
``--seconds`` on the box this was written on (the single node under half
of that), with a deadline of three times ``--seconds`` as the safety net
on a much slower one. Fixed work keeps the request mix, and with it the
latency percentiles and the peak memory, the same from run to run.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from repro.ais.datasets import scalability_fleet_config
from repro.ais.fleet import FleetEngine, MessageBatch
from repro.cluster import ClusterConfig, LoopbackHub, codec
from repro.evaluation.figure6 import seeded_svrf_forecaster
from repro.platform import LoopbackCluster, Platform

from bench.harness import Outcome, ms, percentile
from bench.spans import by_name
from bench.workloads.platform_layers import platform_layers, trace_platform

TICK_S = 30.0
#: One closed-loop request: this many consecutive positions of the stream,
#: about one 30 s tick of this fleet. Cutting by count, not by stream
#: time, gives every request of every seed the same amount of work, so a
#: latency percentile does not move with how many vessels a seed happens
#: to make report per tick.
REQUEST_POSITIONS = 200
REQUESTS_PER_BUDGET_SECOND = 8
#: The replay gives up at this multiple of ``--seconds``.
DEADLINE_FACTOR = 3.0
#: Vessels first appear over this much stream time (the Figure 6 actor
#: ramp), then the population is stable; kept short so most measured
#: requests fall on the plateau.
RAMP_S = 600.0
#: Prune spatial actors this often in stream time, as ``run_figure6``.
HOUSEKEEPING_EVERY_S = 1_800.0
#: The codec probe decodes and re-encodes up to this many message frames,
#: taken from the first wire frames (batches of up to 128) the hub carried.
CODEC_PROBE_FRAMES = 10_000
CODEC_PROBE_WIRE_FRAMES = 512


def generate_requests(seed: int, seconds: float, n_vessels: int) -> list:
    """The seeded stream, cut into ``seconds * REQUESTS_PER_BUDGET_SECOND``
    requests of ``REQUEST_POSITIONS`` consecutive positions in time
    order."""
    count = int(seconds * REQUESTS_PER_BUDGET_SECOND)
    # After the ramp about two vessels in three report per tick; half
    # again as many ticks as that needs, so the stream is never short.
    ticks = RAMP_S / TICK_S + 1.5 * count * REQUEST_POSITIONS \
        / (0.65 * n_vessels)
    config = dataclasses.replace(
        scalability_fleet_config(n_vessels=n_vessels,
                                 duration_s=ticks * TICK_S, seed=seed),
        start_window_s=RAMP_S)
    stream = FleetEngine(config).run_collect().sorted_by_time()
    if len(stream) < count * REQUEST_POSITIONS:
        raise RuntimeError(f"stream of {len(stream)} positions is short of "
                           f"{count} requests")
    columns = [f.name for f in dataclasses.fields(MessageBatch)]
    return [MessageBatch(**{c: getattr(stream, c)[a:a + REQUEST_POSITIONS]
                            for c in columns})
            for a in range(0, count * REQUEST_POSITIONS, REQUEST_POSITIONS)]


class _FleetReplay:
    """The request loop and the checks both workloads share."""

    name: str
    #: What the generic end-to-end names mean on these workloads.
    aliases = {"throughput_per_s": "positions_per_s",
               "latency_ms_p50": "tick_to_kv_ms_p50",
               "latency_ms_p75": "tick_to_kv_ms_p75"}
    n_vessels = 300
    smoke_vessels = 150

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.n_vessels = self.smoke_vessels if smoke else self.n_vessels
        self.requests = generate_requests(seed, seconds, self.n_vessels)
        self.params = {
            "n_vessels": self.n_vessels, "tick_s": TICK_S, "ramp_s": RAMP_S,
            "request_positions": REQUEST_POSITIONS,
            "stream_requests": len(self.requests),
            "housekeeping_every_s": HOUSEKEEPING_EVERY_S,
            "forecaster": "seeded_svrf_forecaster", "loop": "closed, 1 client",
        }

    # Subclasses provide the system under test: ``platforms``,
    # ``publish(request)``, ``process() -> int``, ``housekeeping()``,
    # ``trace(tracer)``, ``close()``.

    def extra_layers(self, ledger: dict, rows: dict, positions: int) -> dict:
        return {}

    def extra_checks(self, distinct: int) -> dict:
        return {}

    # -- the measured loop --------------------------------------------------------------

    def measure(self, seconds: float, tracer, reference) -> Outcome:
        self.trace(tracer)
        ingestion = self.platforms[0].ingestion
        system = self.platforms[0].system
        intervals: list[tuple[float, float]] = []
        published = processed = done = lag_max = 0
        last_housekeeping = 0.0
        clock = time.perf_counter
        start = clock()
        with tracer.span("run"):
            for index, request in enumerate(self.requests):
                tracer.tick = index
                reference.sample()
                began = clock()
                with tracer.span("tick"):
                    with tracer.span("streams.publish"):
                        self.publish(request)
                    if tracer.enabled:
                        lag_max = max(lag_max, ingestion.lag)
                    with tracer.span("platform.process_available"):
                        processed += self.process()
                intervals.append((began, clock()))
                published += len(request)
                done = index + 1
                if system.now - last_housekeeping > HOUSEKEEPING_EVERY_S:
                    with tracer.span("platform.housekeeping"):
                        self.housekeeping()
                    last_housekeeping = system.now
                if clock() - start >= DEADLINE_FACTOR * seconds:
                    break
        wall = clock() - start
        reference.sample()

        stale, distinct = self._stale_vessels(self.requests[:done])
        kv_vessels = sum(p.api.vessel_count() for p in self.platforms)
        checks = {
            "processed_equals_published": processed == published,
            "kv_vessels_equal_distinct_mmsis": kv_vessels == distinct,
            **self.extra_checks(distinct),
        }
        scaled, wall_clock = reference.durations(intervals)
        metrics, raw = _request_metrics(scaled), _request_metrics(wall_clock)
        layers: dict = {}
        if tracer.enabled:
            ledger = tracer.ledger()
            rows = by_name(ledger)
            layers = platform_layers(rows, tracer.counts, self.platforms,
                                     published, lag_max)
            layers.update(self.extra_layers(ledger, rows, processed))
            layers.update(tracer.shares(rows))
        params = dict(self.params, requests_replayed=done,
                      positions_replayed=published, window_s=wall,
                      positions_per_wall_s=processed / wall,
                      distinct_vessels=distinct,
                      latency_samples=len(intervals),
                      deadline_hit=done < len(self.requests))
        return Outcome(metrics=metrics, raw=raw, layers=layers,
                       attempted=published,
                       failed=stale + abs(published - processed),
                       checks=checks, params=params)

    def _stale_vessels(self, requests) -> tuple[int, int]:
        """Vessels whose final KV ``t`` trails their last published fix by
        more than ``downsample_s`` (the downsampler may drop the newest
        fix, nothing else may), and the distinct MMSI count."""
        mmsi = np.concatenate([r.mmsi for r in requests])
        t = np.concatenate([r.t for r in requests])
        last_fix: dict[int, float] = {}
        for vessel, fix_t in zip(mmsi.tolist(), t.tolist()):
            if fix_t > last_fix.get(vessel, -1.0):
                last_fix[vessel] = fix_t
        slack = self.platforms[0].config.downsample_s
        stale = 0
        for vessel, fix_t in last_fix.items():
            states = [s for s in (p.api.vessel_state(vessel)
                                  for p in self.platforms) if s]
            if not states or max(s["t"] for s in states) < fix_t - slack:
                stale += 1
        return stale, len(last_fix)


def _request_metrics(latencies: list[float]) -> dict:
    return {
        # Every request carries the same work, so the sustained rate is
        # the request size over the median request time; positions over
        # the loop's wall time is in the report's params.
        "throughput_per_s": REQUEST_POSITIONS / statistics.median(latencies),
        "latency_ms_p50": ms(percentile(latencies, 50)),
        "latency_ms_p75": ms(percentile(latencies, 75)),
    }


class FleetSvrf(_FleetReplay):
    name = "fleet_svrf"

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        self.platform = Platform(forecaster=seeded_svrf_forecaster())
        self.platforms = [self.platform]

    def publish(self, request) -> None:
        self.platform.publish_batch(request)

    def process(self) -> int:
        return self.platform.process_available()

    def housekeeping(self) -> None:
        self.platform.housekeeping()

    def trace(self, tracer) -> None:
        trace_platform(tracer, self.platform)

    def close(self) -> None:
        self.platform.shutdown()


class _CapturingHub(LoopbackHub):
    """The loopback hub; a traced run keeps the first wire frames for the
    codec probe (``_enqueue`` is the hub's documented per-frame hook; the
    sim's fault-injecting hub overrides the same method)."""

    def __init__(self) -> None:
        super().__init__()
        self.capturing = False
        self.captured: list[bytes] = []

    def _enqueue(self, dest: str, frame: bytes, src: str | None = None
                 ) -> None:
        if self.capturing and len(self.captured) < CODEC_PROBE_WIRE_FRAMES:
            self.captured.append(frame)
        super()._enqueue(dest, frame, src)


class Cluster4Svrf(_FleetReplay):
    name = "cluster4_svrf"
    nodes = 4

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        self.params.update(nodes=self.nodes, transport_batching=True)
        self.hub = _CapturingHub()
        self.cluster = LoopbackCluster(
            num_nodes=self.nodes, forecaster_factory=seeded_svrf_forecaster,
            cluster_config=ClusterConfig(transport_batching=True),
            hub=self.hub)
        self.platforms = self.cluster.platforms

    def publish(self, request) -> None:
        self.cluster.seed.publish_batch(request)

    def process(self) -> int:
        return self.cluster.process_available()

    def housekeeping(self) -> None:
        for platform in self.platforms:
            platform.housekeeping()
        self.cluster.settle()

    def trace(self, tracer) -> None:
        codec.reset_counters()
        self.hub.capturing = tracer.enabled
        tracer.wrap(self.hub, "pump", "cluster.hub_pump")
        for platform in self.platforms:
            trace_platform(tracer, platform, tag=platform.node.node_id)

    def extra_checks(self, distinct: int) -> dict:
        return {"cluster_total_vessels_equal_distinct_mmsis":
                self.cluster.total_vessels == distinct}

    def extra_layers(self, ledger: dict, rows: dict, positions: int) -> dict:
        # A node's busy time is the self time of every span tagged with it.
        busy = {p.node.node_id: 0.0 for p in self.platforms}
        for (_name, tag), row in ledger.items():
            if tag in busy:
                busy[tag] += row["self_s"]
        seed_id = self.cluster.seed.node.node_id
        # The seed publishes every request; that span carries no node tag.
        busy[seed_id] += rows["streams.publish"]["self_s"]
        busy_max = max(busy.values())
        busy_mean = sum(busy.values()) / len(busy)
        vessels = list(self.cluster.vessel_distribution().values())
        stats = [node.transport.stats() for node in self.cluster.nodes]
        frames = sum(s["frames_batched"] for s in stats)
        encode_us, decode_us = _codec_probe(self.hub.captured)
        return {
            "cluster.hub_pump_s": rows["cluster.hub_pump"]["self_s"],
            "cluster.frames_sent": frames,
            "cluster.bytes_sent": sum(s["batched_bytes"] for s in stats),
            "cluster.batches_sent": sum(s["batches_sent"] for s in stats),
            "cluster.frames_per_position": frames / positions,
            "cluster.pickle_fallbacks": codec.counters()["pickle_fallbacks"],
            "cluster.codec_encode_us": encode_us,
            "cluster.codec_decode_us": decode_us,
            "cluster.busy_s_seed": busy[seed_id],
            "cluster.busy_s_max": busy_max,
            "cluster.busy_s_sum": sum(busy.values()),
            "cluster.busy_skew": busy_max / busy_mean,
            "cluster.vessel_skew": max(vessels) * len(vessels) / sum(vessels),
            # Modelled, as run_scaling_point: what one core per node would
            # feel. Single-threaded loopback wall time tracks busy_s_sum.
            "cluster.critical_path_positions_per_s": positions / busy_max,
        }

    def close(self) -> None:
        self.cluster.shutdown()


def _codec_probe(wire_frames: list[bytes]) -> tuple[float, float]:
    """Mean microseconds to decode, and to re-encode, one message frame
    among the wire frames the hub captured (batches are opened first)."""
    frames: list[bytes] = []
    for wire in wire_frames:
        frames.extend(codec.decode_batch(wire) if codec.is_batch(wire)
                      else [wire])
    frames = frames[:CODEC_PROBE_FRAMES]
    if not frames:
        return 0.0, 0.0
    start = time.perf_counter()
    messages = [codec.decode(frame) for frame in frames]
    decode_s = time.perf_counter() - start
    start = time.perf_counter()
    for message in messages:
        codec.encode(message)
    encode_s = time.perf_counter() - start
    return encode_s / len(frames) * 1e6, decode_s / len(frames) * 1e6
