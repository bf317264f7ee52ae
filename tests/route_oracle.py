"""The scalar route builder, the oracle of the one-pass fleet builder.

:func:`reference_make_route` is the route builder one waypoint at a time,
with scalar geodesy calls and :mod:`math` sines, as ``make_route`` was before
``route_waypoints`` built a whole fleet in one array pass.
:func:`reference_build_routes` is ``FleetEngine._build_routes`` on top of it:
one route per vessel, drawn in the loop.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.ais.ports import Port
from repro.ais.routes import Route, _corridor_seed
from repro.ais.vessel import random_statics
from repro.geo.geodesy import destination_point, haversine_m, initial_bearing_deg


def reference_make_route(
    origin: Port,
    destination: Port,
    rng: random.Random,
    n_waypoints: int = 24,
    corridor_amplitude_m: float = 25_000.0,
    voyage_amplitude_m: float = 6_000.0,
) -> Route:
    """One voyage's route, built waypoint by waypoint."""
    if n_waypoints < 2:
        raise ValueError(f"need at least 2 waypoints, got {n_waypoints}")
    total = haversine_m(origin.lat, origin.lon, destination.lat, destination.lon)
    if total <= 0.0:
        raise ValueError("origin and destination coincide")

    pair_rng = random.Random(_corridor_seed(origin, destination))
    corridor_modes = [(pair_rng.uniform(-1.0, 1.0), k + 1) for k in range(2)]
    voyage_modes = [(rng.uniform(-1.0, 1.0), k + 1) for k in range(3)]

    waypoints: list[tuple[float, float]] = []
    for i in range(n_waypoints):
        frac = i / (n_waypoints - 1)
        lat, lon = destination_point(
            origin.lat,
            origin.lon,
            initial_bearing_deg(origin.lat, origin.lon, destination.lat, destination.lon),
            total * frac,
        )
        offset = 0.0
        for amp, k in corridor_modes:
            offset += corridor_amplitude_m * amp * math.sin(math.pi * k * frac)
        for amp, k in voyage_modes:
            offset += voyage_amplitude_m * amp * math.sin(math.pi * k * frac)
        offset *= math.sin(math.pi * frac)
        if abs(offset) > 0.0:
            heading = initial_bearing_deg(lat, lon, destination.lat, destination.lon)
            side = 90.0 if offset >= 0 else -90.0
            lat, lon = destination_point(lat, lon, heading + side, abs(offset))
        waypoints.append((lat, lon))

    waypoints[0] = (origin.lat, origin.lon)
    waypoints[-1] = (destination.lat, destination.lon)
    return Route(origin=origin, destination=destination, waypoints=tuple(waypoints))


def reference_build_routes(engine) -> None:
    """``FleetEngine._build_routes`` with one :func:`reference_make_route`
    per vessel, drawn inside the per-vessel loop."""
    cfg = engine.config
    ports = engine._candidate_ports()
    weights = [p.weight for p in ports]
    engine.statics = []
    waypoint_arrays = []
    for i in range(cfg.n_vessels):
        engine.statics.append(random_statics(engine._rng, cfg.base_mmsi + i))
        origin, dest = engine._rng.choices(ports, weights=weights, k=2)
        while dest.name == origin.name:
            dest = engine._rng.choices(ports, weights=weights, k=1)[0]
        gc_km = haversine_m(origin.lat, origin.lon, dest.lat, dest.lon) / 1_000.0
        n_wp = int(np.clip(gc_km / cfg.waypoint_spacing_km, 8, 96))
        route = reference_make_route(
            origin,
            dest,
            engine._rng,
            n_waypoints=n_wp,
            corridor_amplitude_m=min(25_000.0, gc_km * 1_000.0 * 0.05),
            voyage_amplitude_m=min(6_000.0, gc_km * 1_000.0 * 0.015),
        )
        waypoint_arrays.append(np.asarray(route.waypoints, dtype=float))

    counts = np.array([len(w) for w in waypoint_arrays])
    engine._wp_offsets = np.concatenate([[0], np.cumsum(counts)])
    flat = np.concatenate(waypoint_arrays, axis=0)
    engine._wp_lat = flat[:, 0].copy()
    engine._wp_lon = flat[:, 1].copy()
