"""Crash-interrupted warehouse compaction vs a fault-free oracle.

:func:`run_warehouse_scenario` runs the standard seeded workload through
a single-node :class:`~repro.platform.pipeline.Platform` whose kvstore
journals to disk, then compacts the journal into **two** warehouses:

* the **oracle** — one uninterrupted pass through
  :meth:`Platform.compact_warehouse`;
* the **victim** — the same journal compacted under seeded crash
  injection: the warehouse ``failpoint`` hook raises at randomly chosen
  segment-write / manifest-write / post-commit boundaries, the process
  "restarts" (warehouse reopened from disk, a fresh compactor), and
  compaction re-runs until it completes.

The invariants the campaign checks:

1. **Exact row counts** — warehouse position rows equal the
   writer's ``states_written`` (the platform runs an unbatched writer,
   ``writer_batch_max_ops=1``, so per-MMSI coalescing never merges kept
   fixes away) and event rows equal ``events_written``, in both
   warehouses.
2. **Byte equality** — the victim's :meth:`Warehouse.fingerprint`
   (logical content digest: partition keys + column bytes) equals the
   oracle's, whatever crash schedule interrupted it.
3. **Readability** — every manifest-referenced segment in both
   warehouses loads cleanly (no torn or missing files).
4. **Query parity** — the history of every vessel in the oracle's
   position rows, and the full heatmap, agree between oracle and victim.
5. **Crash coverage** — the schedule actually crashed at least once
   (otherwise the campaign silently degenerates to a clean pass), and
   :meth:`Warehouse.vacuum` removed any orphans without changing the
   fingerprint.

Everything nondeterministic derives from the seed, so a failing seed
replays byte-for-byte (``pytest tests/sim/test_warehouse.py --sim-seed
N``).
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field

from repro.kvstore.persistence import StorePersistence
from repro.platform.config import PlatformConfig
from repro.platform.pipeline import Platform
from repro.sim.campaign import CampaignReport
from repro.sim.invariants import Violation
from repro.sim.workload import generate_workload
from repro.warehouse import Warehouse, WarehouseCompactor, WarehouseQueries
from repro.warehouse.segments import CorruptSegmentError, read_segment


class SimCrash(Exception):
    """The injected compaction crash (escapes to the retry loop only)."""


@dataclass(frozen=True)
class WarehouseScenario:
    """A crash-interrupted compaction campaign over the standard seeded
    workload."""

    name: str = "warehouse-compaction-crash"
    num_proximity_pairs: int = 2
    num_collision_pairs: int = 1
    num_loners: int = 3
    steps: int = 10
    spacing_s: float = 60.0
    #: Small batches mean many commits, so many crash windows per run.
    batch_rows: int = 32
    #: Per-failpoint crash probability.
    crash_p: float = 0.35
    #: Crash injection stops after this many (termination bound).
    max_crashes: int = 64
    resolution: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.crash_p < 1.0:
            raise ValueError("crash_p must be in (0, 1)")
        if self.max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")


@dataclass
class WarehouseReport(CampaignReport):
    """What one crash-compaction campaign run observed."""

    states_written: int
    events_written: int
    position_rows: int
    event_rows: int
    crashes: int
    attempts: int
    oracle_fingerprint: str
    victim_fingerprint: str
    counters: dict = field(default_factory=dict)

    DIGEST = (
        "scenario",
        "seed",
        "violations",
        "states_written",
        "events_written",
        "position_rows",
        "event_rows",
        "crashes",
        "attempts",
        "oracle_fingerprint",
        "victim_fingerprint",
        "counters",
    )
    SUMMARY = ("rows={position_rows}+{event_rows}", "crashes={crashes}/{attempts}", "attempts")


def _run_platform(
    scenario: WarehouseScenario, seed: int, kv_dir: str
) -> tuple[int, int, StorePersistence]:
    """Drive the seeded workload through an unbatched-writer platform
    journaling to ``kv_dir``; returns (states, events, persistence)."""
    # writer_batch_max_ops=1: every kept fix lands as its own journaled
    # hmset (no per-MMSI coalescing), so journal rows == kept fixes.
    # compact_every_ops=0: the store never folds the journal into a
    # snapshot behind the compactor's back.
    config = PlatformConfig(writer_batch_max_ops=1)
    platform = Platform(config=config)
    persistence = StorePersistence(kv_dir, compact_every_ops=0)
    platform.kvstore.bind_persistence(persistence)
    workload = generate_workload(
        seed,
        num_proximity_pairs=scenario.num_proximity_pairs,
        num_collision_pairs=scenario.num_collision_pairs,
        num_loners=scenario.num_loners,
        steps=scenario.steps,
        spacing_s=scenario.spacing_s,
    )
    for chunk in workload.messages_by_step:
        platform.publish_messages(chunk)
        platform.process_available()
    platform.wiring.writer_ref.flush()
    platform.settle()
    states = platform.wiring.writer_ref.states_written
    events = platform.wiring.writer_ref.events_written
    platform.shutdown()
    return states, events, persistence


def _compact_with_crashes(
    scenario: WarehouseScenario, seed: int, directory: str, persistence: StorePersistence
) -> tuple[int, int]:
    """Compact under seeded failpoint crashes, reopening from disk after
    each, until a pass completes. Returns (crashes, attempts)."""
    rng = random.Random(seed ^ 0x0C0_FFEE)
    crashes = 0
    attempts = 0
    while True:
        attempts += 1
        warehouse = Warehouse(directory, resolution=scenario.resolution)
        compactor = WarehouseCompactor(warehouse, batch_rows=scenario.batch_rows)

        def failpoint(stage: str, detail) -> None:
            if crashes < scenario.max_crashes and rng.random() < scenario.crash_p:
                raise SimCrash(f"{stage}:{detail}")

        warehouse.failpoint = failpoint
        try:
            compactor.compact_persistence(persistence)
        except SimCrash:
            crashes += 1
            continue
        return crashes, attempts


def _check_segments_load(name: str, warehouse: Warehouse) -> list[Violation]:
    """Decode every segment file the manifest references from disk (``read_segment``, never
    the warehouse's cache), so a torn or missing file shows."""
    violations = []
    for table in ("positions", "events"):
        for _coarse, _day, entry in warehouse.segments(table):
            try:
                read_segment(os.path.join(warehouse.directory, entry["file"]))
            except (CorruptSegmentError, OSError) as exc:
                violations.append(
                    Violation("segment-readable", f"{name} {table} segment {entry['file']}: {exc}")
                )
    return violations


def _check_query_parity(oracle: Warehouse, victim: Warehouse, mmsis: list[int]) -> list[Violation]:
    violations = []
    q_oracle = WarehouseQueries(oracle)
    q_victim = WarehouseQueries(victim)
    for mmsi in sorted(mmsis):
        if q_oracle.vessel_history(mmsi) != q_victim.vessel_history(mmsi):
            violations.append(
                Violation(
                    "query-parity",
                    f"vessel {mmsi} history differs between "
                    f"oracle and crash-interrupted warehouse",
                )
            )
    if q_oracle.heatmap() != q_victim.heatmap():
        violations.append(
            Violation(
                "query-parity",
                "full heatmap differs between oracle and crash-interrupted warehouse",
            )
        )
    return violations


def run_warehouse_scenario(
    scenario: WarehouseScenario, seed: int, workdir: str | None = None
) -> WarehouseReport:
    """Execute ``scenario`` under ``seed``; pass ``workdir`` to keep the
    journal and both warehouses inspectable after the run (by default
    they live in a temporary directory removed on return)."""
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix=f"sim-warehouse-seed{seed}-") as workdir:
            return run_warehouse_scenario(scenario, seed, workdir)
    states, events, persistence = _run_platform(scenario, seed, os.path.join(workdir, "kv"))
    try:
        return _compact_and_check(scenario, seed, workdir, states, events, persistence)
    finally:
        persistence.close()


def _compact_and_check(
    scenario: WarehouseScenario,
    seed: int,
    workdir: str,
    states: int,
    events: int,
    persistence: StorePersistence,
) -> WarehouseReport:
    oracle_dir = os.path.join(workdir, "oracle")
    victim_dir = os.path.join(workdir, "victim")
    oracle = Warehouse(oracle_dir, resolution=scenario.resolution)
    WarehouseCompactor(oracle, batch_rows=scenario.batch_rows).compact_persistence(persistence)

    crashes, attempts = _compact_with_crashes(scenario, seed, victim_dir, persistence)
    # The post-crash reopen: exactly what a restarted process would see.
    victim = Warehouse(victim_dir, resolution=scenario.resolution)
    fingerprint_before_vacuum = victim.fingerprint()
    orphans = victim.vacuum()

    violations: list[Violation] = []
    for name, warehouse in (("oracle", oracle), ("victim", victim)):
        if warehouse.total_rows("positions") != states:
            violations.append(
                Violation(
                    "row-count",
                    f"{name} holds "
                    f"{warehouse.total_rows('positions')} position rows, "
                    f"writer wrote {states} kept fixes",
                )
            )
        if warehouse.total_rows("events") != events:
            violations.append(
                Violation(
                    "row-count",
                    f"{name} holds "
                    f"{warehouse.total_rows('events')} event rows, "
                    f"writer wrote {events}",
                )
            )
        violations.extend(_check_segments_load(name, warehouse))

    oracle_fp = oracle.fingerprint()
    victim_fp = victim.fingerprint()
    if oracle_fp != victim_fp:
        violations.append(
            Violation(
                "byte-equality",
                f"victim fingerprint {victim_fp[:16]} != oracle "
                f"{oracle_fp[:16]} after {crashes} crash(es)",
            )
        )
    if victim_fp != fingerprint_before_vacuum:
        violations.append(
            Violation(
                "vacuum-neutrality",
                f"vacuum ({orphans} orphan(s) removed) changed the victim fingerprint",
            )
        )
    if crashes == 0:
        violations.append(
            Violation(
                "crash-coverage",
                "the seeded schedule never crashed compaction — the campaign "
                "degenerated to a clean pass (raise crash_p or batch count)",
            )
        )

    # Every vessel the oracle holds a fix of: parity covers each history.
    mmsis = sorted(
        {
            mmsi
            for _c, _d, entry in oracle.segments("positions")
            for mmsi in oracle.load(entry)["mmsi"].tolist()
        }
    )
    violations.extend(_check_query_parity(oracle, victim, mmsis))
    return WarehouseReport(
        scenario=scenario.name,
        seed=seed,
        violations=violations,
        states_written=states,
        events_written=events,
        position_rows=victim.total_rows("positions"),
        event_rows=victim.total_rows("events"),
        crashes=crashes,
        attempts=attempts,
        oracle_fingerprint=oracle_fp,
        victim_fingerprint=victim_fp,
        counters={"orphans_vacuumed": orphans, "journal_ops": persistence.seq},
    )
