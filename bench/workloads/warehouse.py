"""``warehouse_olap``: compaction rate beside query latency.

A seeded multi-day traffic journal (``generate_traffic_journal``, the
writer pool's exact op shapes) is bulk-compacted into a fresh warehouse —
five times over, into five fresh directories, so the rate is a median —
then the five OLAP queries ``run_warehouse_bench`` defines run back to
back as one *sweep*, sweep after sweep, until ``--seconds`` have passed
(a closed loop, one client). A last leg appends one more day of fixes to
the journal and compacts it incrementally into partitions that already
exist. No actor, model or socket takes part.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback

from repro.evaluation.warehouse import AREA, generate_traffic_journal
from repro.geo.bbox import BoundingBox
from repro.kvstore.persistence import StorePersistence
from repro.kvstore.store import KeyValueStore
from repro.warehouse import Warehouse, WarehouseCompactor, WarehouseQueries
from repro.warehouse.warehouse import DAY_S

from bench.harness import (
    Outcome,
    directory_bytes,
    ms,
    percentile,
    remove_dir,
    scratch_dir,
)
from bench.spans import by_name

RESOLUTION = 6
#: The journal is one frozen dataset (the seed ``run_warehouse_bench``
#: defaults to); ``--seed`` draws the day that arrives late. How much of
#: 40 wandering vessels' traffic falls inside the 1 x 1 degree area of
#: interest moved the partitions a sweep opens by +-8 % from one journal
#: seed to the next, and the sweep latency with it.
JOURNAL_SEED = 11
BULK_COMPACTIONS = 5
MIN_SWEEPS = 10
#: A 1 x 1 degree area of interest, as ``run_warehouse_bench``: the OLAP
#: shape where partition pruning bites.
AOI = BoundingBox(lat_min=37.0, lat_max=38.0, lon_min=24.0, lon_max=25.0)


class WarehouseOlap:
    name = "warehouse_olap"
    #: What the generic end-to-end names mean on this workload.
    aliases = {"throughput_per_s": "compact_rows_per_s",
               "latency_ms_p50": "olap_sweep_ms_p50",
               "latency_ms_p75": "olap_sweep_ms_p75"}

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.vessels, self.days, self.fixes_per_day = \
            (20, 1, 96) if smoke else (40, 2, 288)
        self.directory = scratch_dir("warehouse-")
        # compact_every_ops=0: the benchmark owns the journal; the store
        # must not fold it into a snapshot behind the compactor's back.
        self.persistence = StorePersistence(
            os.path.join(self.directory, "kv"), compact_every_ops=0)
        self.store = KeyValueStore(persistence=self.persistence)
        self.position_rows, self.event_rows = generate_traffic_journal(
            self.store, self.vessels, self.days, self.fixes_per_day,
            JOURNAL_SEED)

    def close(self) -> None:
        self.persistence.close()
        remove_dir(self.directory)

    def _queries(self, queries: WarehouseQueries, warehouse: Warehouse) -> dict:
        horizon = self.days * DAY_S
        event_cells = [cell for cell, _day, _meta
                       in warehouse.partitions("events")]
        centre = ((AREA.lat_min + AREA.lat_max) / 2.0,
                  (AREA.lon_min + AREA.lon_max) / 2.0)
        return {
            "heatmap_bbox": lambda: queries.heatmap(
                bbox=AOI, t0=0.0, t1=horizon),
            "heatmap_kring": lambda: queries.kring_heatmap(
                *centre, 5, t0=0.0, t1=horizon),
            "event_timeseries": lambda: queries.cell_event_rate(
                event_cells, 0.0, horizon, 3_600.0),
            "congestion_trend": lambda: queries.congestion_trend(
                0.0, horizon, 6 * 3_600.0, bbox=AOI),
            "vessel_history": lambda: queries.vessel_history(200_000_000),
        }

    def _journal_rows_in_aoi(self) -> int:
        """Brute force over the journal ops: kept fixes inside the AOI."""
        horizon = self.days * DAY_S
        hits = 0
        for _seq, op, args, _kwargs in self.persistence.iter_ops():
            if op == "hmset" and args[0].startswith("vessel:"):
                row = args[1]
                if AOI.contains(row["lat"], row["lon"]) \
                        and 0.0 <= row["t"] <= horizon:
                    hits += 1
        return hits

    def measure(self, seconds: float, tracer, reference) -> Outcome:
        clock = time.perf_counter
        journal_rows = self.position_rows + self.event_rows
        compactions: list[tuple[float, float]] = []
        bulk_stats: list[dict] = []
        sweeps: list[tuple[float, float]] = []
        per_query: dict[str, list[float]] = {}
        failed = 0
        start = clock()
        with tracer.span("run"):
            for index in range(BULK_COMPACTIONS):
                warehouse = Warehouse(
                    os.path.join(self.directory, f"warehouse-{index}"),
                    resolution=RESOLUTION)
                compactor = WarehouseCompactor(warehouse)
                began = clock()
                with tracer.span("warehouse.compact"):
                    bulk_stats.append(
                        compactor.compact_persistence(self.persistence))
                compactions.append((began, clock()))
                reference.sample(reference.NEIGHBOURS)
            bytes_on_disk = directory_bytes(warehouse.directory)
            queries = WarehouseQueries(warehouse)
            sweep = self._queries(queries, warehouse)
            per_query = {name: [] for name in sweep}
            heat_total = sum(sweep["heatmap_bbox"]().values())
            while len(sweeps) < MIN_SWEEPS or clock() - start < seconds:
                tracer.tick = len(sweeps)
                reference.sample()
                sweep_start = clock()
                with tracer.span("tick"):
                    for name, query in sweep.items():
                        began = clock()
                        try:
                            with tracer.span(f"warehouse.query.{name}"):
                                query()
                        except Exception:
                            # A query that raises is a failed operation; the
                            # sweep goes on so the run still reports.
                            traceback.print_exc()
                            failed += 1
                        per_query[name].append(clock() - began)
                sweeps.append((sweep_start, clock()))
        bulk = bulk_stats[-1]
        aoi_rows = self._journal_rows_in_aoi()

        # One more day of fixes, drawn from ``--seed``, lands in day-0
        # partitions that already exist (a late replay), so the
        # incremental compaction has to merge, not only append.
        extra_positions, extra_events = generate_traffic_journal(
            self.store, self.vessels, 1, self.fixes_per_day, self.seed)
        began = clock()
        incremental = compactor.compact_persistence(self.persistence)
        incremental_s = clock() - began

        checks = {
            "compacted_rows_equal_journal_rows":
                all(s["rows"] == journal_rows for s in bulk_stats),
            "incremental_rows_equal_appended_rows":
                incremental["rows"] == extra_positions + extra_events,
            "heatmap_total_equals_brute_force":
                heat_total == aoi_rows,
        }

        def end_to_end(compaction_s: list[float], sweep_s: list[float]) -> dict:
            return {
                # Rows per second of one bulk compaction, median of five.
                "throughput_per_s": statistics.median(
                    journal_rows / seconds for seconds in compaction_s),
                "latency_ms_p50": ms(percentile(sweep_s, 50)),
                "latency_ms_p75": ms(percentile(sweep_s, 75)),
            }

        compact_scaled, compact_s = reference.durations(compactions)
        sweep_scaled, sweep_s = reference.durations(sweeps)
        metrics = end_to_end(compact_scaled, sweep_scaled)
        raw = end_to_end(compact_s, sweep_s)
        layers: dict = {}
        if tracer.enabled:
            scanned, pruned = (queries.partitions_scanned,
                               queries.partitions_pruned)
            layers = {
                "warehouse.compact_s": sum(compact_s),
                "warehouse.rows": bulk["rows"],
                "warehouse.segments_written": bulk["segments_written"],
                "warehouse.rows_per_segment":
                    bulk["rows"] / bulk["segments_written"],
                "warehouse.commits": bulk["commits"],
                "warehouse.bytes_on_disk": bytes_on_disk,
                "warehouse.incremental_rows_per_s":
                    incremental["rows"] / incremental_s,
                "warehouse.partitions_scanned": scanned,
                "warehouse.partitions_pruned": pruned,
                "warehouse.prune_ratio": pruned / (scanned + pruned),
                "warehouse.rows_scanned": queries.rows_scanned,
                **{f"warehouse.query.{name}_ms_p50":
                   ms(percentile(samples, 50))
                   for name, samples in per_query.items()},
                **tracer.shares(by_name(tracer.ledger())),
            }
        params = {
            "vessels": self.vessels, "days": self.days,
            "fixes_per_day": self.fixes_per_day, "resolution": RESOLUTION,
            "journal_seed": JOURNAL_SEED,
            "journal_rows": journal_rows,
            "bulk_compactions": BULK_COMPACTIONS,
            "bulk_compact_s": compact_s, "sweeps": len(sweeps),
            "latency_samples": len(sweeps),
            "incremental_rows": incremental["rows"],
            "loop": "batch job, then closed 1-client query loop",
        }
        queries_run = len(sweeps) * len(per_query)
        return Outcome(metrics=metrics, raw=raw, layers=layers,
                       attempted=BULK_COMPACTIONS + queries_run + 1,
                       failed=failed, checks=checks, params=params)
