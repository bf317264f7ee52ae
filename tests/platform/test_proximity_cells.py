"""The proximity cell table: one table per node instead of one actor per cell.

The invariants under test:

* the table raises the alerts, in order, and keeps the ``last_seen``
  entries that one reference :class:`ProximityDetector` per cell would,
  whatever the interleaving of observations and prunes;
* a prune drops every cell it empties (the memory bound);
* ``cell_state`` survives a pickled checkpoint, and ``RestoreState`` adopts
  it only into an absent or empty cell;
* a remote observation raises its hit on the node that owns the cell;
* the dilated-disk memo stays under its cap and stays exact after a clear.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.events.proximity import ProximityDetector
from repro.hexgrid import grid_disk, latlng_to_cell
from repro.platform import LoopbackCluster, Platform
from repro.platform import vessel_actor
from repro.platform.cell_actor import ProximityCellTable
from repro.platform.checkpoint import capture_checkpoint
from repro.platform.messages import CellObservation, ProximityAlert, RestoreState
from repro.platform.vessel_actor import PROXIMITY_RESOLUTION


class AlertSink:
    """A stand-in vessel router: records every ``(key, message)`` told."""

    def __init__(self) -> None:
        self.told: list[tuple] = []

    def tell(self, key, message) -> None:
        self.told.append((key, message))


def make_table() -> tuple[ProximityCellTable, AlertSink]:
    sink = AlertSink()
    wiring = SimpleNamespace(system=SimpleNamespace(telemetry=None), vessel_router=sink)
    return ProximityCellTable(wiring), sink


def observation(cell, mmsi, t, lat, lon) -> CellObservation:
    return CellObservation(cell=cell, mmsi=mmsi, t=t, lat=lat, lon=lon)


#: One step: an observation ``(cell, mmsi, t, lat, lon)`` close enough to
#: others to hit, or a prune at a time.
observations = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=600.0),
    st.floats(min_value=37.0, max_value=37.006),
    st.floats(min_value=23.0, max_value=23.006),
)
prunes = st.floats(min_value=0.0, max_value=800.0)
steps = st.lists(st.one_of(observations, prunes), max_size=60)


@settings(max_examples=150, deadline=None)
@given(steps)
def test_the_table_is_one_detector_per_cell(plan):
    table, sink = make_table()
    reference: dict[int, ProximityDetector] = {}
    expected = []
    for step in plan:
        if isinstance(step, float):
            table.prune(step)
            for detector in reference.values():
                detector.prune(step)
            continue
        cell, mmsi, t, lat, lon = step
        table.tell(cell, observation(cell, mmsi, t, lat, lon))
        detector = reference.setdefault(cell, ProximityDetector())
        expected += [(hit.pair[0], hit) for hit in detector.observe(mmsi, t, lat, lon)]
    assert [(key, message.event) for key, message in sink.told] == expected
    assert all(type(message) is ProximityAlert for _, message in sink.told)
    alive = {cell: d.export_state() for cell, d in reference.items() if d.tracked_vessels}
    assert {cell: table.cell_state(cell)["detector"] for cell in table.known_keys()} == alive


def test_a_prune_drops_the_cells_it_empties():
    table, _ = make_table()
    table.tell(1, observation(1, 7, 0.0, 37.0, 23.0))
    table.tell(2, observation(2, 8, 100.0, 37.0, 23.0))
    table.prune(150.0)  # cell 1's only fix is older than the 120 s window
    assert table.known_keys() == [2] and len(table) == 1
    assert 1 not in table and table.cell_state(1) is None
    table.prune(1_000.0)
    assert len(table) == 0


def aegean_checkpoint():
    from repro.ais.datasets import proximity_scenario

    scenario = proximity_scenario(
        n_event_pairs=2, n_near_miss_pairs=1, n_background=1, duration_s=1_800.0
    )
    cluster = LoopbackCluster(num_nodes=1)
    try:
        cluster.seed.publish_messages(sorted(scenario.result.messages, key=lambda m: m.t))
        cluster.process_available()
        table = cluster.seed.wiring.proximity_cells
        live = {cell: table.cell_state(cell) for cell in table.known_keys()}
        return live, pickle.loads(pickle.dumps(capture_checkpoint(cluster.platforms)))
    finally:
        cluster.shutdown()


def test_cell_state_round_trips_through_a_pickled_checkpoint():
    live, checkpoint = aegean_checkpoint()
    cells = {key: state for entity, key, state in checkpoint.nodes[0].entities if entity == "cell"}
    assert cells == live and cells
    table, _ = make_table()
    for key, state in cells.items():
        table.tell(key, RestoreState(entity="cell", key=key, state=state))
    assert {key: table.cell_state(key) for key in table.known_keys()} == cells


def test_restore_adopts_only_into_an_absent_or_empty_cell():
    table, _ = make_table()
    table.tell(5, observation(5, 1, 50.0, 37.0, 23.0))
    newer = table.cell_state(5)
    stale = {"detector": {"last_seen": {2: (10.0, 37.0, 23.0)}}}
    table.tell(5, RestoreState(entity="cell", key=5, state=stale))
    assert table.cell_state(5) == newer  # observed since: keeps its own
    table.tell(6, RestoreState(entity="cell", key=6, state=stale, handoff=True))
    assert table.cell_state(6) == stale  # absent: adopts
    table.tell(7, RestoreState(entity="cell", key=7, state={"detector": {"last_seen": {}}}))
    assert 7 not in table  # nothing to adopt: no empty cell appears


def test_a_remote_observation_raises_its_hit_on_the_owning_node():
    cluster = LoopbackCluster(num_nodes=2)
    try:
        sender, owner = cluster.platforms
        router = sender.wiring.cell_router
        lat, lon = 37.0, 23.0
        cell = latlng_to_cell(lat, lon, PROXIMITY_RESOLUTION)
        while router.owner_of(cell) != owner.node.node_id:
            lat += 0.01
            cell = latlng_to_cell(lat, lon, PROXIMITY_RESOLUTION)
        router.tell(cell, observation(cell, 101, 10.0, lat, lon))
        router.tell(cell, observation(cell, 102, 20.0, lat + 0.001, lon))
        cluster.process_available()
        assert cell in owner.wiring.proximity_cells
        assert cell not in sender.wiring.proximity_cells
        seen = owner.wiring.proximity_cells.cell_state(cell)["detector"]["last_seen"]
        assert seen.keys() == {101, 102}
        assert cluster.event_count("proximity") == 1
    finally:
        cluster.shutdown()


def test_housekeeping_frees_the_cells_of_a_quiet_sea():
    platform = Platform()
    try:
        table = platform.wiring.proximity_cells
        for mmsi in range(1, 4):
            table.tell(mmsi, observation(mmsi, mmsi, 0.0, 37.0, 23.0))
        assert platform.proximity_cell_count == 3 == platform.stats()["cells_local"]
        platform.sync_clock(3_600.0)
        platform.housekeeping()
        assert platform.proximity_cell_count == 0
    finally:
        platform.shutdown()


def test_the_disk_memo_stays_under_its_cap_and_exact(monkeypatch):
    monkeypatch.setattr(vessel_actor, "_DISK_CACHE", {})
    monkeypatch.setattr(vessel_actor, "_DISK_CACHE_MAX", 8)
    bases = [latlng_to_cell(37.0 + 0.01 * i, 23.0, 8) for i in range(20)]
    for base in bases:
        assert vessel_actor._disk(base) == tuple(grid_disk(base, 1))
        assert len(vessel_actor._DISK_CACHE) <= 8
    assert vessel_actor._disk(bases[0]) == tuple(grid_disk(bases[0], 1))


def test_the_disk_memo_cap_is_two_to_the_sixteen():
    assert vessel_actor._DISK_CACHE_MAX == 1 << 16
