"""The forecast fan-out and the collision-cell table it feeds.

``share_forecasts`` computes a flush's collision cells with one
``latlng_to_cells`` call and hands each forecast to the node's collision-cell
table in one call. The references here are built the slow way: scalar
``latlng_to_cell`` + ``grid_disk`` per predicted position, and per cell the
loop of the deleted collision-cell actor, which tested a newcomer against
every member of every cell it touched. Per cell the members, the distinct
alerts and the flow grid must match; the table runs one pair test per
distinct (newcomer, member) pair where the per-cell loop ran one per cell.
A member forecast is its ``(mmsi, anchor time)``, so copies of one forecast
restored into separate cells are one member.
"""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ais.datasets import proximity_scenario
from repro.cluster import codec
from repro.cluster.protocol import ShardedBatch, WireEnvelope
from repro.events.collision import densify, trajectories_intersect
from repro.events.vtff import FLOW_RESOLUTION
from repro.hexgrid import (
    CELL_BLOCK_BITS,
    cell_block,
    cell_to_latlng,
    grid_disk,
    latlng_to_cell,
    pack_cell,
    unpack_cell,
)
from repro.models import LinearKinematicModel
from repro.models.base import RouteForecast, forecast_mark_times
from repro.platform import LoopbackCluster, Platform, PlatformConfig
from repro.platform.cell_actor import CollisionCellRouter
from repro.platform.messages import ForecastBatch, RestoreState
from repro.platform.vessel_actor import (
    COLLISION_NEIGHBOR_RINGS,
    COLLISION_RESOLUTION,
    share_forecasts,
)
from tests.forecasts import comparable, hit_bits, make_forecast, reference_intersect


def track(mmsi: int, t0: float, lat: float, lon: float, dlat: float, dlon: float):
    """A 7-position forecast moving ``(dlat, dlon)`` per 5-minute mark."""
    times = [t0, *forecast_mark_times(t0)]
    return make_forecast(mmsi, [(t, lat + k * dlat, lon + k * dlon) for k, t in enumerate(times)])


#: One flush: A and B cross (shared cells), A is re-shared later in the
#: same flush, a failed row shares nothing, and C reaches cells that A
#: holds alone and cells already shared by the A/B pair.
FLUSH = [
    track(111, 0.0, 38.000, 23.500, 0.004, 0.004),
    track(222, 0.0, 38.024, 23.500, -0.004, 0.004),
    track(111, 60.0, 38.002, 23.502, 0.004, 0.004),
    None,
    track(333, 0.0, 38.012, 23.530, 0.0, -0.004),
]


def moved(forecast: RouteForecast | None, dlat: float, dlon: float) -> RouteForecast | None:
    if forecast is None:
        return None
    anchor = forecast.anchor
    anchor = replace(anchor, lat=anchor.lat + dlat, lon=anchor.lon + dlon)
    return replace(forecast, anchor=anchor, lats=forecast.lats + dlat, lons=forecast.lons + dlon)


def to_a_block_corner() -> tuple[float, float]:
    """The ``(dlat, dlon)`` that moves ``FLUSH`` onto a corner where four
    blocks of collision cells meet."""
    res, q, r = unpack_cell(cell_block(latlng_to_cell(38.0, 23.5, COLLISION_RESOLUTION)))
    side = 1 << CELL_BLOCK_BITS
    lat, lon = cell_to_latlng(pack_cell(res, q + side, r + side))
    return lat - 38.012, lon - 23.515


def flush_at_a_block_corner() -> list:
    """``FLUSH`` moved onto a corner where four blocks of collision cells
    meet. A cluster shards collision cells by block, and ``FLUSH`` itself
    lies inside one block: moved, its cells live on both nodes of a 2-node
    cluster (the tests below assert that)."""
    return [moved(forecast, *to_a_block_corner()) for forecast in FLUSH]


def dilated_cells(forecast: RouteForecast) -> set:
    cells = set()
    for lat, lon in zip(forecast.lats.tolist(), forecast.lons.tolist()):
        base = latlng_to_cell(lat, lon, COLLISION_RESOLUTION)
        cells.update(grid_disk(base, COLLISION_NEIGHBOR_RINGS))
    return cells


class PerCellReference:
    """The deleted collision-cell actor, one per cell: test the newcomer
    against each member of another MMSI with the per-pair oracle, then store
    it as that MMSI's latest forecast. ``share`` returns its alerts, one per (cell, member),
    and what the table should do instead: one test per distinct member
    forecast met over all the cells (``(mmsi, anchor time) -> hit or
    None``)."""

    def __init__(self, max_age_s: float = 900.0) -> None:
        self.cells: dict = {}
        self.max_age_s = max_age_s

    def share(self, cells, forecast) -> tuple[list, dict]:
        alerts, met = [], {}
        for cell in cells:
            members = self.cells.setdefault(cell, {})
            for mmsi, other in members.items():
                if mmsi != forecast.mmsi:
                    hit = reference_intersect(forecast, densify(forecast), other, densify(other))
                    met[(mmsi, other.anchor.t)] = hit
                    if hit is not None:
                        alerts.append(hit)
            members[forecast.mmsi] = forecast
        return alerts, met

    def prune(self, now: float) -> None:
        for cell, members in list(self.cells.items()):
            fresh = {m: fc for m, fc in members.items() if now - fc.anchor.t <= self.max_age_s}
            if fresh:
                self.cells[cell] = fresh
            else:
                del self.cells[cell]


class WalkReference:
    """The collision table as it walked before the batched share: a newcomer
    densified at the first shared cell it meets, a bare member when a
    newcomer first meets it, and each distinct member forecast tested with
    the per-pair oracle when the walk meets it. ``share`` returns each row's
    results in test order."""

    def __init__(self, max_age_s: float = PlatformConfig().event_debounce_s) -> None:
        self.cells: dict = {}
        self.max_age_s = max_age_s

    def share(self, rows) -> list[list]:
        out = []
        for cells, forecast in rows:
            mmsi, track, met, results = forecast.mmsi, None, {}, []
            for cell in cells:
                members = self.cells.get(cell)
                if members is None:
                    self.cells[cell] = forecast
                    continue
                if not isinstance(members, dict):
                    if members.mmsi == mmsi:
                        self.cells[cell] = forecast
                        continue
                    held = met.get((members.mmsi, members.anchor.t))
                    held = densify(members) if held is None else held
                    members = self.cells[cell] = {members.mmsi: (members, held)}
                if track is None:
                    track = densify(forecast)
                for other_mmsi, (other, other_track) in members.items():
                    key = (other_mmsi, other.anchor.t)
                    if other_mmsi != mmsi and key not in met:
                        met[key] = other_track
                        results.append(reference_intersect(forecast, track, other, other_track))
                members[mmsi] = (forecast, track)
            out.append(results)
        return out

    def prune(self, now: float) -> None:
        for cell, members in list(self.cells.items()):
            if not isinstance(members, dict):
                if now - members.anchor.t > self.max_age_s:
                    del self.cells[cell]
                continue
            fresh = {
                m: kept for m, kept in members.items() if now - kept[0].anchor.t <= self.max_age_s
            }
            if len(fresh) > 1:
                self.cells[cell] = fresh
            elif fresh:
                ((self.cells[cell], _),) = fresh.values()
            else:
                del self.cells[cell]


def assert_cells_match(reference_cells: dict, state_of, same=id) -> None:
    """Per cell the table holds the reference's members: the same
    forecast objects (``same=id``; a remote cell holds decoded copies, so
    the cluster compares tracks), latest per MMSI, in first-arrival order."""
    for cell, members in reference_cells.items():
        held = state_of(cell)["forecasts"]
        assert [(m, same(fc)) for m, fc in held.items()] == [
            (m, same(fc)) for m, fc in members.items()
        ]


def reference_flow(forecasts) -> dict:
    latest = {forecast.mmsi: forecast for forecast in forecasts if forecast is not None}
    grid: dict = {}
    for mmsi, forecast in latest.items():
        marks = forecast.ts[1:], forecast.lats[1:], forecast.lons[1:]
        for t, lat, lon in zip(*(column.tolist() for column in marks)):
            key = (latlng_to_cell(lat, lon, FLOW_RESOLUTION), int(t // 300.0))
            grid.setdefault(key, set()).add(mmsi)
    return grid


class AlertLog:
    """A stand-in vessel router: records every alert the table sends."""

    def __init__(self) -> None:
        self.alerts = []

    def tell(self, mmsi, message) -> None:
        assert mmsi == message.event.pair[0]
        self.alerts.append(message.event)


def bare_table() -> tuple[CollisionCellRouter, AlertLog]:
    log = AlertLog()
    wiring = SimpleNamespace(vessel_router=log, config=PlatformConfig(event_debounce_s=900.0))
    return CollisionCellRouter(wiring), log


def test_flush_deliveries_match_the_scalar_reference():
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    wiring = platform.wiring
    table = wiring.collision_cells
    reference, tests_after_row, total = PerCellReference(), [], 0
    for forecast in FLUSH:
        if forecast is not None:
            total += len(reference.share(dilated_cells(forecast), forecast)[1])
        tests_after_row.append(total)
    # The flush exercises every branch: cells 111 holds alone, cells the
    # 111/222 crossing shares, and cells 333 meets both of them in.
    sizes = {len(members) for members in reference.cells.values()}
    assert {1, 2, 3} <= sizes

    seen = []
    share_forecasts(wiring, FLUSH, after_row=lambda i: seen.append((i, table.pair_tests)))
    platform.system.run_until_idle()

    # Row i is fully shared before after_row(i) runs.
    assert seen == list(enumerate(tests_after_row))
    assert set(table.known_keys()) == set(reference.cells)
    assert_cells_match(reference.cells, table.cell_state)
    assert platform.flow_snapshot().grid._vessels == reference_flow(FLUSH)
    platform.shutdown()


@pytest.fixture(scope="module")
def recorded_run():
    """The collision table's inputs, in order, from a platform streaming the
    Aegean proximity scenario: each flush's rows and each prune; and the
    pair tests the live table counted."""
    scenario = proximity_scenario(
        n_event_pairs=4, n_near_miss_pairs=2, n_background=2, duration_s=3_600.0
    )
    messages = sorted(scenario.result.messages, key=lambda m: m.t)
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    table = platform.wiring.collision_cells
    ops, share_rows, prune = [], table.share_rows, table.prune

    def recording_share(rows):
        rows = [(list(cells), forecast) for cells, forecast in rows]
        ops.append(("share", rows))
        return share_rows(rows)

    def recording_prune(now):
        ops.append(("prune", now))
        prune(now)

    table.share_rows, table.prune = recording_share, recording_prune
    try:
        for i in range(0, len(messages), 500):
            platform.publish_messages(messages[i : i + 500])
            platform.process_available()
        return ops, table.pair_tests
    finally:
        platform.shutdown()


def test_a_recorded_run_shares_as_the_walk_did(recorded_run):
    """Replayed flush by flush, a recorded run's shares send the walk
    reference's alerts, bit for bit, in its order, and count its pair tests
    row by row: batching the densify and the pre-tests of the kernel changed
    no decision."""
    ops, live_tests = recorded_run
    table, log = bare_table()
    reference = WalkReference()
    for op, arg in ops:
        if op == "prune":
            table.prune(arg)
            reference.prune(arg)
            continue
        emit = table.share_rows(arg)
        for k, results in enumerate(reference.share(arg)):
            tests, sent = table.pair_tests, len(log.alerts)
            emit(k)
            assert table.pair_tests - tests == len(results)
            assert [hit_bits(hit) for hit in log.alerts[sent:]] == [
                hit_bits(hit) for hit in results if hit is not None
            ]
    assert table.pair_tests == live_tests
    assert len(log.alerts) > 10 and table.pair_tests > len(log.alerts)
    assert set(table.known_keys()) == set(reference.cells)


def test_stats_report_the_tables_pair_tests():
    """``Platform.stats()["collision_pair_tests"]`` is the node table's
    running count of pair tests."""
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    try:
        assert platform.stats()["collision_pair_tests"] == 0
        share_forecasts(platform.wiring, list(FLUSH))
        tests = platform.wiring.collision_cells.pair_tests
        assert tests > 0 and platform.stats()["collision_pair_tests"] == tests
    finally:
        platform.shutdown()


def test_a_flow_snapshot_stays_as_taken():
    """The flow actor replies to ``"snapshot"`` with a copy: forecasts it
    takes in later do not reach a snapshot already handed out."""
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    try:
        platform.wiring.flow_ref.tell(ForecastBatch(forecasts=tuple(filter(None, FLUSH[:2]))))
        platform.system.run_until_idle()
        snapshot = platform.flow_snapshot()
        before = {window: snapshot.predicted_flow(window) for window in range(8)}
        assert any(before.values())
        later = tuple(moved(forecast, 1.0, 1.0) for forecast in filter(None, FLUSH))
        platform.wiring.flow_ref.tell(ForecastBatch(forecasts=later))
        platform.system.run_until_idle()
        assert {window: snapshot.predicted_flow(window) for window in range(8)} == before
        assert platform.flow_snapshot().grid._vessels == reference_flow(FLUSH[:2] + list(later))
    finally:
        platform.shutdown()


class RecordingRouter:
    """A stand-in collision router: records each row's cells in the order
    ``share_rows`` iterates them."""

    def __init__(self) -> None:
        self.shared: list = []

    def share_rows(self, rows):
        self.shared += [(list(cells), forecast) for cells, forecast in rows]
        return lambda k: None


_ANYWHERE = st.tuples(
    st.floats(-80.0, 80.0),
    st.floats(-540.0, 540.0),
    st.floats(-0.05, 0.05),
    st.floats(-0.05, 0.05),
)


def _flush_rows():
    """A flush's rows: forecasts anywhere on the globe, long-stepped enough
    for large cell sets, failed rows, and rows whose later marks run past
    the pole."""
    anywhere = st.builds(
        lambda mmsi, course: track(mmsi, 0.0, *course), st.integers(1, 6), _ANYWHERE
    )
    past_pole = st.builds(
        lambda mmsi, lat: track(mmsi, 0.0, lat, 23.5, 0.2, 0.0),
        st.integers(1, 6),
        st.floats(89.0, 89.9),
    )
    return st.lists(st.one_of(anywhere, anywhere, st.none(), past_pole), max_size=8)


@settings(max_examples=80, deadline=None)
@given(_flush_rows())
def test_shared_cells_are_the_per_mark_grid_disk_union_in_its_order(flush):
    """Each row reaches the router with the cells of a per-mark
    ``grid_disk`` union, in that set's iteration order; a row off the globe
    shares nothing and is dropped, and the flow actor gets the rest."""
    router, told = RecordingRouter(), []
    wiring = SimpleNamespace(collision_router=router, flow_ref=SimpleNamespace(tell=told.append))
    kept = [f for f in flush if f is not None and np.all(np.abs(f.lats) <= 90.0)]
    rows = list(flush)
    assert share_forecasts(wiring, rows) == sum(f is not None for f in flush) - len(kept)
    assert [id(f) for f in filter(None, rows)] == [id(f) for f in kept]
    assert [(cells, id(f)) for cells, f in router.shared] == [
        (list(dilated_cells(f)), id(f)) for f in kept
    ]
    assert [len(batch.forecasts) for batch in told] == ([len(kept)] if kept else [])


def test_cluster_fanout_lands_in_each_nodes_bulk_stash():
    """On a 2-node cluster the flush's local cells go straight to the node's
    table and the remote ones travel as ``ForecastSharedBatch`` envelopes
    into the owner's table: together the nodes hold exactly the reference."""
    flush = flush_at_a_block_corner()
    cluster = LoopbackCluster(num_nodes=2)
    try:
        sender = cluster.platforms[1]
        routers = [platform.wiring.collision_router for platform in cluster.platforms]
        reference = PerCellReference()
        for forecast in filter(None, flush):
            reference.share(dilated_cells(forecast), forecast)
        share_forecasts(sender.wiring, flush)
        cluster.settle()

        def state_of(cell):
            (platform,) = [p for p, r in zip(cluster.platforms, routers) if r.is_local(cell)]
            return platform.wiring.collision_cells.cell_state(cell)

        assert routers[1].remote_told > 0 and all(len(router) for router in routers)
        assert sum(len(router) for router in routers) == len(reference.cells)
        assert_cells_match(reference.cells, state_of, same=comparable)
    finally:
        cluster.shutdown()


def test_a_shared_batch_is_tested_once_per_node():
    """Two forecasts meeting in many cells of both nodes cost one pair
    test on each node: the remote leg arrives as one ``ForecastSharedBatch``
    and joins its cells in one share."""
    cluster = LoopbackCluster(num_nodes=2)
    try:
        sender = cluster.platforms[1]
        router = sender.wiring.collision_router
        a, b = flush_at_a_block_corner()[:2]
        cells = sorted(dilated_cells(a))
        owned = [sum(router.is_local(cell) == local for cell in cells) for local in (0, 1)]
        assert min(owned) >= 2
        router.share_forecast(cells, a)
        router.share_forecast(cells, b)
        cluster.settle()
        tables = [platform.wiring.collision_cells for platform in cluster.platforms]
        assert [table.pair_tests for table in tables] == [1, 1]
        assert trajectories_intersect(b, a) is not None
    finally:
        cluster.shutdown()


_COURSE = st.tuples(
    st.floats(38.0, 38.01),
    st.floats(23.5, 23.51),
    st.floats(-0.004, 0.004),
    st.floats(-0.004, 0.004),
)


def _forecasts():
    """Small random forecasts over a few MMSIs, crowded enough to hit."""
    return st.builds(
        lambda mmsi, t0, course: track(mmsi, t0, *course),
        mmsi=st.integers(1, 4),
        t0=st.sampled_from([0.0, 60.0, 600.0, 1_200.0]),
        course=_COURSE,
    )


_PRUNE = st.tuples(st.just("prune"), st.sampled_from([600.0, 1_500.0, 2_500.0]), st.just(None))


@st.composite
def _steps(draw):
    """Shares and prunes over a few MMSIs. As in the platform, a vessel's
    ``(mmsi, anchor time)`` names one track; each share is a fresh copy of
    it, as a restored or decoded forecast is."""
    tracks = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 4), st.sampled_from([0.0, 60.0, 600.0, 1_200.0])),
            _COURSE,
            min_size=1,
            max_size=8,
        )
    )
    share = st.tuples(
        st.just("share"),
        st.sampled_from(sorted(tracks.items())).map(lambda kv: track(*kv[0], *kv[1])),
        st.lists(st.integers(0, 5), unique=True),
    )
    return draw(st.lists(st.one_of(share, share, share, _PRUNE), max_size=14))


@settings(max_examples=60, deadline=None)
@given(_steps())
def test_table_matches_the_per_cell_actors(steps):
    """Random forecasts over random overlapping cell sets, with prunes in
    between: after every step each cell holds the reference's members, each
    share sends the reference's distinct alerts, and the table runs one pair
    test, and sends at most one alert, per distinct (newcomer, member)
    forecast pair."""
    table, log = bare_table()
    reference = PerCellReference()
    for op, arg, cells in steps:
        if op == "prune":
            table.prune(arg)
            reference.prune(arg)
        else:
            before_tests, before_alerts = table.pair_tests, len(log.alerts)
            alerts, met = reference.share(cells, arg)
            table.share_forecast(cells, arg)
            sent = log.alerts[before_alerts:]
            assert table.pair_tests - before_tests == len(met)
            assert Counter(sent) == Counter(hit for hit in met.values() if hit is not None)
            assert set(sent) == set(alerts)
        assert set(table.known_keys()) == set(reference.cells)
        assert_cells_match(reference.cells, table.cell_state)


@settings(max_examples=60, deadline=None)
@given(_forecasts(), _forecasts())
def test_table_hit_is_bitwise_trajectories_intersect(member, newcomer):
    """The table densifies once and tests the flush's pairs in one
    ``intersect_pairs`` call; its hit for a pair is
    ``trajectories_intersect(newcomer, member)`` bit for bit, which is the
    per-pair oracle's."""
    member = replace(member, mmsi=10)
    table, log = bare_table()
    table.share_forecast([0, 1], member)
    table.share_forecast([1, 0], newcomer)
    expected = trajectories_intersect(newcomer, member)
    oracle = reference_intersect(newcomer, densify(newcomer), member, densify(member))
    assert hit_bits(expected) == hit_bits(oracle)
    assert len(log.alerts) == (expected is not None)
    if expected is not None:
        (hit,) = log.alerts
        fields = ("t_expected", "lat", "lon", "min_distance_m", "forecast_at")
        assert (hit.mmsi_a, hit.mmsi_b) == (expected.mmsi_a, expected.mmsi_b)
        for name in fields:
            assert getattr(hit, name).hex() == getattr(expected, name).hex(), name


def test_a_member_restored_into_k_cells_is_tested_once():
    """Each ``RestoreState`` decodes its own copy of a member forecast, so
    a member handed over in k cells arrives as k objects. A newcomer that
    meets it in all k cells is still one pair test and at most one alert."""
    table, log = bare_table()
    member = track(111, 0.0, 38.000, 23.500, 0.004, 0.004)
    cells = sorted(dilated_cells(member))[:5]
    for cell in cells:
        restore = RestoreState(entity="collision", key=cell, state={"forecasts": {111: member}})
        batch = ShardedBatch(entries=(("collision", cell, restore, 0, None),))
        env = WireEnvelope(kind="sharded", src="n", message=batch)
        ((_, _, decoded, _, _),) = codec.decode(codec.encode(env)).message.entries
        table.tell(cell, decoded)
    restored = [table.cells[cell] for cell in cells]
    assert len({id(forecast) for forecast in restored}) == len(cells)
    table.share_forecast(cells, track(222, 0.0, 38.024, 23.500, -0.004, 0.004))
    assert table.pair_tests == 1 and len(log.alerts) == 1


@st.composite
def _flushes(draw):
    """A few flushes of rows over a few MMSIs, failed rows among them. As in
    the platform, a vessel's ``(mmsi, anchor time)`` names one track; each
    row is a fresh copy of it."""
    tracks = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 4), st.sampled_from([0.0, 60.0, 600.0, 1_200.0])),
            _COURSE,
            min_size=1,
            max_size=8,
        )
    )
    row = st.sampled_from(sorted(tracks.items())).map(lambda kv: track(*kv[0], *kv[1]))
    return draw(st.lists(st.lists(st.one_of(row, row, st.none()), max_size=6), max_size=3))


@settings(max_examples=30, deadline=None)
@given(_flushes())
def test_a_flush_emits_the_per_cell_references_sequence(flushes):
    """On a 2-node cluster, flushes around a block corner emit through the
    batched table in the reference's order: per row, the distinct hits of
    its local cells in the order the per-cell loop meets them (hits bit for
    bit the per-pair oracle's), then one share per peer in first-cell order,
    then the row's reply."""
    cluster = LoopbackCluster(num_nodes=2)
    try:
        sender = cluster.platforms[1]
        router = sender.wiring.collision_router
        reference, log = PerCellReference(), []
        tell, send = sender.wiring.vessel_router.tell, sender.node.send_sharded

        def logged_tell(mmsi, message):
            log.append(("alert", mmsi, hit_bits(message.event)))
            tell(mmsi, message)

        def logged_send(entity, key, message):
            if entity == "collision":
                log.append(("share", message.cells))
            send(entity, key, message)

        sender.wiring.vessel_router.tell, sender.node.send_sharded = logged_tell, logged_send
        for flush in flushes:
            rows = [moved(forecast, *to_a_block_corner()) for forecast in flush]
            expected = []
            for i, forecast in enumerate(rows):
                if forecast is not None:
                    local, remote = [], {}
                    for cell in dilated_cells(forecast):
                        if router.is_local(cell):
                            local.append(cell)
                        else:
                            remote.setdefault(router.owner_of(cell), []).append(cell)
                    hits = [hit for hit in reference.share(local, forecast)[1].values() if hit]
                    expected += [("alert", hit.pair[0], hit_bits(hit)) for hit in hits]
                    expected += [("share", tuple(group)) for group in remote.values()]
                expected.append(("reply", i))
            log.clear()
            share_forecasts(sender.wiring, rows, after_row=lambda i: log.append(("reply", i)))
            assert log == expected
            cluster.settle()
    finally:
        cluster.shutdown()
