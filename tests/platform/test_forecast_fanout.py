"""The columnar forecast fan-out delivers exactly what the scalar one did.

``share_forecasts`` computes a flush's collision cells with one
``latlng_to_cells`` call and hands each forecast to the collision router's
single-occupant stash in one call. The reference here is built the slow
way — scalar ``latlng_to_cell`` + ``grid_disk`` per predicted position,
one delivery per (forecast, cell) — and per cell the collision actors'
``forecasts``, the stash, ``stashed_tells`` and the flow grid must match.
"""

from repro.events.vtff import FLOW_RESOLUTION
from repro.geo.track import Position
from repro.hexgrid import grid_disk, latlng_to_cell
from repro.models import LinearKinematicModel
from repro.models.base import RouteForecast, forecast_mark_times
from repro.platform import LoopbackCluster, Platform, PlatformConfig
from repro.platform.vessel_actor import COLLISION_RESOLUTION, share_forecasts


def track(mmsi: int, t0: float, lat: float, lon: float, dlat: float, dlon: float):
    """A 7-position forecast moving ``(dlat, dlon)`` per 5-minute mark."""
    times = [t0, *forecast_mark_times(t0)]
    positions = tuple(
        Position(t=t, lat=lat + k * dlat, lon=lon + k * dlon) for k, t in enumerate(times)
    )
    return RouteForecast(mmsi=mmsi, positions=positions)


#: One flush: A and B cross (shared cells), A is re-shared later in the
#: same flush, a failed row shares nothing, and C reaches cells that A
#: stashed and cells already spawned for the A/B pair.
FLUSH = [
    track(111, 0.0, 38.000, 23.500, 0.004, 0.004),
    track(222, 0.0, 38.024, 23.500, -0.004, 0.004),
    track(111, 60.0, 38.002, 23.502, 0.004, 0.004),
    None,
    track(333, 0.0, 38.012, 23.530, 0.0, -0.004),
]


def reference(forecasts, rings: int):
    """Scalar fan-out plus the single-occupant rule: ``(stash, arrivals,
    stashed_tells after each row)``, arrivals being the per-cell forecasts
    a spawned actor receives, stash replay first."""
    stash, arrivals, stashed, after_row = {}, {}, 0, []
    for forecast in forecasts:
        if forecast is not None:
            cells = set()
            for pos in forecast.positions:
                base = latlng_to_cell(pos.lat, pos.lon, COLLISION_RESOLUTION)
                cells.update(grid_disk(base, rings))
            for cell in cells:
                if cell in arrivals:
                    arrivals[cell].append(forecast)
                elif cell not in stash or stash[cell].mmsi == forecast.mmsi:
                    stash[cell] = forecast
                    stashed += 1
                else:
                    arrivals[cell] = [stash.pop(cell), forecast]
        after_row.append(stashed)
    return stash, arrivals, after_row


def reference_flow(forecasts) -> dict:
    latest = {forecast.mmsi: forecast for forecast in forecasts if forecast is not None}
    grid: dict = {}
    for mmsi, forecast in latest.items():
        for pos in forecast.predicted:
            key = (latlng_to_cell(pos.lat, pos.lon, FLOW_RESOLUTION), int(pos.t // 300.0))
            grid.setdefault(key, set()).add(mmsi)
    return grid


def assert_cells_match(stash, arrivals, platform_of) -> None:
    """Per cell: the stash holds the reference's sole occupant, and a spawned
    actor's ``forecasts`` the reference's arrivals (latest per MMSI, in
    first-arrival order)."""
    for cell, forecast in stash.items():
        router = platform_of(cell).wiring.collision_router
        assert router.stashed_state(cell)["forecasts"] == {forecast.mmsi: forecast}
    for cell, received in arrivals.items():
        actor = platform_of(cell).system._cells[f"collision-{cell}"].actor
        expected = {}
        for forecast in received:
            expected[forecast.mmsi] = forecast
        assert list(actor.forecasts.items()) == list(expected.items())


def test_flush_deliveries_match_the_scalar_reference():
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    wiring = platform.wiring
    router = wiring.collision_router
    stash, arrivals, stashed_after_row = reference(FLUSH, wiring.config.collision_neighbor_rings)
    # The batch exercises every branch of the rule: stashes re-shared by
    # 111, 333 spawning cells that 111's re-share stashed, and deliveries
    # to cells the 111/222 crossing had already spawned.
    patterns = {tuple((fc.mmsi, fc.anchor.t) for fc in fcs) for fcs in arrivals.values()}
    assert ((111, 60.0), (333, 0.0)) in patterns
    assert ((111, 0.0), (222, 0.0), (111, 60.0), (333, 0.0)) in patterns
    assert (111, 60.0) in {(fc.mmsi, fc.anchor.t) for fc in stash.values()}

    seen = []
    share_forecasts(wiring, FLUSH, after_row=lambda i: seen.append((i, router.stashed_tells)))
    platform.system.run_until_idle()

    # Row i is fully shared before after_row(i) runs.
    assert seen == list(enumerate(stashed_after_row))
    assert router.stashed_tells == stashed_after_row[-1]
    assert router.spawned == len(arrivals)
    assert set(router.known_keys()) == set(stash) | set(arrivals)
    assert all(router.stashed_state(cell) is None for cell in arrivals)
    assert_cells_match(stash, arrivals, lambda cell: platform)
    assert platform.flow_snapshot().grid._vessels == reference_flow(FLUSH)
    platform.shutdown()


def test_cluster_fanout_lands_in_each_nodes_bulk_stash():
    """On a 2-node cluster the flush's local cells go straight to the node's
    stash and the remote ones travel as ``ForecastSharedBatch`` envelopes
    into the owner's stash: together the nodes hold exactly the reference."""
    cluster = LoopbackCluster(num_nodes=2)
    try:
        sender = cluster.platforms[1]
        routers = [platform.wiring.collision_router for platform in cluster.platforms]
        rings = sender.config.collision_neighbor_rings
        stash, arrivals, stashed_after_row = reference(FLUSH, rings)
        share_forecasts(sender.wiring, FLUSH)
        cluster.settle()

        def owner(cell):
            (platform,) = [p for p, r in zip(cluster.platforms, routers) if r.is_local(cell)]
            return platform

        assert routers[1].remote_told > 0 and all(len(router) for router in routers)
        assert sum(router._local.stashed_tells for router in routers) == stashed_after_row[-1]
        assert sum(router.spawned for router in routers) == len(arrivals)
        assert_cells_match(stash, arrivals, owner)
    finally:
        cluster.shutdown()
