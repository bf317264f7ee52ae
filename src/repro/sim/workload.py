"""Seeded, margin-robust AIS workloads for simulation runs.

The event-parity invariant compares the (kind, pair) event set of a
faulty run against a fault-free run of the same seed. That comparison is
only sound if the workload keeps every geometric decision far from its
threshold: faults reorder deliveries, and the proximity detector compares
a fresh fix against *whichever* fix of the other vessel it saw last — so
any pair that is marginal under one interleaving would flap between runs.

The generator therefore builds fleets from three robust ingredients:

* **Proximity pairs** — two vessels ~100 m apart co-moving at 0.5 kn,
  placed around the centre of one resolution-8 H3 cell so every fix of
  both vessels falls in the same cell (positions are only observed by the
  cell they fall in). Any cross-time comparison within the detector's
  120 s window sees ≤ ~250 m — deep inside the 500 m threshold.
* **Collision pairs** — two vessels 12 km apart on the same parallel,
  steaming head-on at 10 kn. Every forecast from any kept fix predicts a
  meet within the 30-minute horizon, and they never close within 6 km —
  far outside proximity range.
* **Loners** — solitary background vessels that must never appear in any
  event.

Groups are laid out on a 2° grid (≳200 km apart), so no cross-group
comparison can ever fire. Per-vessel fix spacing is 60 s — twice the
30 s downsampling window — so a full in-order replay keeps every fix and
converges each vessel actor to the newest acknowledged position.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.ais.message import AISMessage
from repro.hexgrid import cell_to_latlng, latlng_to_cell

_KNOTS_TO_MPS = 0.5144444444444445
_M_PER_DEG_LAT = 111_320.0


def _dlat(meters: float) -> float:
    return meters / _M_PER_DEG_LAT


def _dlon(meters: float, lat: float) -> float:
    return meters / (_M_PER_DEG_LAT * math.cos(math.radians(lat)))


@dataclass(frozen=True)
class _Vessel:
    mmsi: int
    lat0: float
    lon0: float
    sog: float       #: knots
    cog: float       #: degrees, 0 = north, 90 = east

    def position(self, elapsed_s: float) -> tuple[float, float]:
        dist = self.sog * _KNOTS_TO_MPS * elapsed_s
        north = dist * math.cos(math.radians(self.cog))
        east = dist * math.sin(math.radians(self.cog))
        lat = self.lat0 + _dlat(north)
        return lat, self.lon0 + _dlon(east, self.lat0)


@dataclass(frozen=True)
class Workload:
    """A generated fleet plus its publish schedule."""

    seed: int
    vessels: tuple[_Vessel, ...]
    #: One chunk per step; chunk k holds every vessel's fix at step k.
    messages_by_step: tuple[tuple[AISMessage, ...], ...]
    #: mmsi -> timestamp of its newest published fix (the acknowledgement
    #: frontier the no-loss invariant checks against).
    final_t: dict[int, float] = field(default_factory=dict)


def _region_center(index: int) -> tuple[float, float]:
    """Widely separated group anchors (a 2-degree grid in the Aegean-ish
    mid-latitudes; ~200 km between neighbouring anchors)."""
    row, col = divmod(index, 8)
    return 34.0 + 2.0 * row, 8.0 + 2.0 * col


def _place_proximity_pair(rng: random.Random, mmsi_a: int, mmsi_b: int,
                          region: int, steps: int, spacing_s: float
                          ) -> tuple[_Vessel, _Vessel]:
    """Two slow co-moving vessels whose whole tracks share one H3 cell."""
    lat_r, lon_r = _region_center(region)
    sog = 0.5
    drift_m = sog * _KNOTS_TO_MPS * spacing_s * max(steps - 1, 1)
    for _ in range(64):
        lat_j = lat_r + (rng.random() - 0.5) * 0.2
        lon_j = lon_r + (rng.random() - 0.5) * 0.2
        # Snap to the centre of the cell under the jittered point and hang
        # the pair's bounding box symmetrically around it.
        clat, clon = cell_to_latlng(latlng_to_cell(lat_j, lon_j, 8))
        lat_start = clat - _dlat(drift_m / 2.0)
        lon_a = clon - _dlon(50.0, clat)
        lon_b = clon + _dlon(50.0, clat)
        corners = [(lat_start, lon_a), (lat_start, lon_b),
                   (lat_start + _dlat(drift_m), lon_a),
                   (lat_start + _dlat(drift_m), lon_b)]
        cells = {latlng_to_cell(la, lo, 8) for la, lo in corners}
        if len(cells) == 1:
            return (_Vessel(mmsi_a, lat_start, lon_a, sog, 0.0),
                    _Vessel(mmsi_b, lat_start, lon_b, sog, 0.0))
    raise RuntimeError("could not fit a proximity pair into one H3 cell")


def _place_collision_pair(mmsi_a: int, mmsi_b: int, region: int
                          ) -> tuple[_Vessel, _Vessel]:
    """Two fast vessels 12 km apart steaming head-on along a parallel."""
    lat_r, lon_r = _region_center(region)
    half_gap = _dlon(6_000.0, lat_r)
    return (_Vessel(mmsi_a, lat_r, lon_r - half_gap, 10.0, 90.0),
            _Vessel(mmsi_b, lat_r, lon_r + half_gap, 10.0, 270.0))


def generate_workload(seed: int, num_proximity_pairs: int = 2,
                      num_collision_pairs: int = 1, num_loners: int = 3,
                      steps: int = 10, spacing_s: float = 60.0
                      ) -> Workload:
    """Build the deterministic fleet and schedule for ``seed``."""
    if spacing_s <= 30.0:
        raise ValueError("fix spacing must exceed the 30 s downsampling "
                         "window or replay convergence is not guaranteed")
    rng = random.Random(seed ^ 0x5EED_CAFE)
    vessels: list[_Vessel] = []
    mmsi = 200_000_000 + (seed % 1_000) * 100
    region = 0
    for _ in range(num_proximity_pairs):
        a, b = _place_proximity_pair(rng, mmsi, mmsi + 1, region,
                                     steps, spacing_s)
        vessels += [a, b]
        mmsi += 2
        region += 1
    for _ in range(num_collision_pairs):
        a, b = _place_collision_pair(mmsi, mmsi + 1, region)
        vessels += [a, b]
        mmsi += 2
        region += 1
    for _ in range(num_loners):
        lat_r, lon_r = _region_center(region)
        vessels.append(_Vessel(mmsi, lat_r + (rng.random() - 0.5) * 0.1,
                               lon_r + (rng.random() - 0.5) * 0.1,
                               3.0, rng.uniform(0.0, 360.0)))
        mmsi += 1
        region += 1

    chunks: list[tuple[AISMessage, ...]] = []
    final_t: dict[int, float] = {}
    for k in range(steps):
        chunk = []
        for idx, vessel in enumerate(vessels):
            # Distinct timestamps per vessel; per-vessel spacing is exactly
            # spacing_s, so the downsampler keeps every in-order fix.
            t = 1.0 + k * spacing_s + idx * 0.01
            lat, lon = vessel.position(k * spacing_s)
            chunk.append(AISMessage(mmsi=vessel.mmsi, t=t, lat=lat,
                                    lon=lon, sog=vessel.sog,
                                    cog=vessel.cog))
            final_t[vessel.mmsi] = t
        chunks.append(tuple(chunk))
    return Workload(seed=seed, vessels=tuple(vessels),
                    messages_by_step=tuple(chunks), final_t=final_t)
