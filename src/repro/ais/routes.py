"""Curved waypoint routes between ports.

Real vessel paths between two ports are not great circles: traffic separation
schemes, coastlines and weather bend them. The long-term forecasting model
(EnvClus*) exists precisely because of that structure. The synthetic route
generator reproduces the property that matters to every consumer: routes
between the same port pair share a common curved corridor, with per-voyage
lateral variation inside the corridor.

A route is built by bending the great circle with a smooth lateral offset
profile (sum of half-sine modes whose amplitudes are deterministic per port
pair) plus a smaller per-voyage random profile.

:func:`route_waypoints` builds a whole fleet's routes in one array pass over
the flat ragged waypoint layout; :func:`make_route` is its one-route call.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.ais.ports import Port
from repro.geo.geodesy import destination_point, haversine_m, initial_bearing_deg


@dataclass(frozen=True)
class Route:
    """A polyline route with the ports it connects."""

    origin: Port
    destination: Port
    waypoints: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    @property
    def length_m(self) -> float:
        lat, lon = np.array(self.waypoints).reshape(-1, 2).T
        return float(haversine_m(lat[:-1], lon[:-1], lat[1:], lon[1:]).sum())


def _corridor_seed(origin: Port, destination: Port) -> int:
    """Deterministic seed shared by all voyages on one port pair, so the
    corridor shape is a property of the pair (as in historical AIS data)."""
    key = f"{origin.name}->{destination.name}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


# The two per-pair caches hold every ordered pair of the catalogue (4,970).
@lru_cache(maxsize=8_192)
def port_distance_m(origin: Port, destination: Port) -> float:
    """Great-circle distance between two ports, from the scalar haversine: a
    numpy scalar squares through ``pow`` where an array multiplies, and the
    two can differ in the last bit (Narvik-Copenhagen on x86-64 glibc)."""
    return haversine_m(origin.lat, origin.lon, destination.lat, destination.lon)


@lru_cache(maxsize=8_192)
def _corridor_modes(origin: Port, destination: Port) -> tuple[float, float]:
    """The pair's two corridor mode amplitudes in ``[-1, 1]``."""
    pair_rng = random.Random(_corridor_seed(origin, destination))
    return pair_rng.uniform(-1.0, 1.0), pair_rng.uniform(-1.0, 1.0)


def voyage_modes(rng: random.Random) -> tuple[float, float, float]:
    """One voyage's three mode amplitudes in ``[-1, 1]``, drawn from ``rng``."""
    return rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)


@lru_cache(maxsize=256)
def _profile(n: int) -> np.ndarray:
    """``(4, n)``: each of ``n`` waypoints' fraction of the way, then
    ``sin(pi * k * frac)`` for the modes ``k = 1, 2, 3``. Evaluated with
    :mod:`math` per waypoint, so the bits do not depend on numpy's SIMD sine."""
    fracs = [i / (n - 1) for i in range(n)]
    table = np.array([fracs] + [[math.sin(math.pi * k * f) for f in fracs] for k in (1, 2, 3)])
    table.flags.writeable = False
    return table


def route_waypoints(
    origins: Sequence[Port],
    destinations: Sequence[Port],
    voyage: Sequence[Sequence[float]],
    n_waypoints: Sequence[int],
    corridor_amplitude_m: Sequence[float],
    voyage_amplitude_m: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every route of a fleet in one pass, as ``(lat, lon, offsets)``: route
    ``r`` runs through ``lat[offsets[r]:offsets[r + 1]]``.

    Route ``r`` interpolates the great circle from ``origins[r]`` to
    ``destinations[r]`` at ``n_waypoints[r]`` points and displaces each
    laterally by a *corridor* profile, deterministic for the port pair (2
    half-sine modes, amplitude ``corridor_amplitude_m[r]``), plus a *voyage*
    profile (3 modes ``voyage[r]`` from :func:`voyage_modes`, amplitude
    ``voyage_amplitude_m[r]``) modelling individual routing decisions.
    Endpoints are never displaced (vessels do depart/arrive at the ports).
    """
    counts = np.asarray(n_waypoints, dtype=np.int64)
    if counts.min() < 2:
        raise ValueError(f"need at least 2 waypoints, got {counts.min()}")
    o_lat, o_lon = np.array([(p.lat, p.lon) for p in origins]).T
    d_lat, d_lon = np.array([(p.lat, p.lon) for p in destinations]).T
    total = np.array(list(map(port_distance_m, origins, destinations)))
    if (total <= 0.0).any():
        raise ValueError("origin and destination coincide")

    offsets = np.concatenate([[0], np.cumsum(counts)])
    route = np.repeat(np.arange(counts.size), counts)
    frac, *sines = np.concatenate([_profile(int(n)) for n in counts], axis=1)

    bearing = initial_bearing_deg(o_lat, o_lon, d_lat, d_lon)
    lat, lon = destination_point(o_lat[route], o_lon[route], bearing[route], total[route] * frac)

    # The offset profile, mode by mode: the corridor's k = 1, 2, then the
    # voyage's k = 1, 2, 3. The taper pins the endpoints after the sum.
    corridor = np.array(list(map(_corridor_modes, origins, destinations)))
    corridor *= np.asarray(corridor_amplitude_m, dtype=float)[:, None]
    voyage = np.asarray(voyage_amplitude_m, dtype=float)[:, None] * np.asarray(voyage, dtype=float)
    offset = np.zeros(route.size)
    for amplitude, k in zip([*corridor.T, *voyage.T], (1, 2, 1, 2, 3)):
        offset += amplitude[route] * sines[k - 1]
    offset *= sines[0]

    # Push each displaced waypoint sideways of its heading to the destination.
    push = np.flatnonzero(np.abs(offset) > 0.0)
    heading = initial_bearing_deg(lat[push], lon[push], d_lat[route[push]], d_lon[route[push]])
    side = np.where(offset[push] >= 0, 90.0, -90.0)
    lat[push], lon[push] = destination_point(
        lat[push], lon[push], heading + side, np.abs(offset[push])
    )

    # Snap exact endpoints (floating point drift from the projections).
    lat[offsets[:-1]], lon[offsets[:-1]] = o_lat, o_lon
    lat[offsets[1:] - 1], lon[offsets[1:] - 1] = d_lat, d_lon
    return lat, lon, offsets


def make_route(
    origin: Port,
    destination: Port,
    rng: random.Random,
    n_waypoints: int = 24,
    corridor_amplitude_m: float = 25_000.0,
    voyage_amplitude_m: float = 6_000.0,
) -> Route:
    """One voyage's route, its voyage modes drawn from ``rng``: the one-route
    call of :func:`route_waypoints`."""
    lat, lon, _ = route_waypoints(
        [origin],
        [destination],
        [voyage_modes(rng)],
        [n_waypoints],
        [corridor_amplitude_m],
        [voyage_amplitude_m],
    )
    return Route(origin, destination, tuple(zip(lat.tolist(), lon.tolist())))
