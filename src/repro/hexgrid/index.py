"""Spatial operations on the hexagonal lattice.

The lattice uses pointy-top hexagons in an equirectangular plane where one
degree of latitude and one degree of longitude both map to
``METERS_PER_DEG_LAT`` metres. Edge lengths per resolution follow H3's
aperture-7 progression (each resolution shrinks edges by ``sqrt(7)``), so
resolution numbers are interchangeable with H3's in configuration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.constants import METERS_PER_DEG_LAT
from repro.geo.geodesy import normalize_lon
from repro.hexgrid.cell import MAX_RESOLUTION, pack_cell, pack_cells, unpack_cell

_SQRT3 = math.sqrt(3.0)

#: Edge length (= circumradius) in projected metres per resolution.
#: Resolution 0 matches H3's ~1107.7 km average edge; each subsequent
#: resolution divides by sqrt(7) (aperture-7), as H3 does.
EDGE_LENGTHS_M: tuple[float, ...] = tuple(
    1_107_712.591 / math.sqrt(7.0) ** res for res in range(MAX_RESOLUTION + 1)
)


def average_edge_length_m(res: int) -> float:
    """Average hexagon edge length in metres at ``res``."""
    return EDGE_LENGTHS_M[res]


def cell_area_m2(res: int) -> float:
    """Area of one hexagon at ``res`` in projected square metres."""
    s = EDGE_LENGTHS_M[res]
    return 3.0 * _SQRT3 / 2.0 * s * s


def _project(lat: float, lon: float) -> tuple[float, float]:
    """Equirectangular projection to planar metres."""
    return (float(normalize_lon(lon)) * METERS_PER_DEG_LAT, lat * METERS_PER_DEG_LAT)


def _unproject(x: float, y: float) -> tuple[float, float]:
    return y / METERS_PER_DEG_LAT, float(normalize_lon(x / METERS_PER_DEG_LAT))


def _axial_round(qf: float, rf: float) -> tuple[int, int]:
    """Round fractional axial coordinates to the containing hexagon
    (via cube-coordinate rounding)."""
    xf, zf = qf, rf
    yf = -xf - zf
    rx, ry, rz = round(xf), round(yf), round(zf)
    dx, dy, dz = abs(rx - xf), abs(ry - yf), abs(rz - zf)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dy > dz:
        ry = -rx - rz
    else:
        rz = -rx - ry
    return int(rx), int(rz)


def latlng_to_cell(lat: float, lon: float, res: int) -> int:
    """Cell id of the hexagon containing ``(lat, lon)`` at ``res``."""
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat}")
    s = EDGE_LENGTHS_M[res]
    x, y = _project(lat, lon)
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / s
    rf = (2.0 / 3.0 * y) / s
    q, r = _axial_round(qf, rf)
    return pack_cell(res, q, r)


def latlng_to_cells(lats, lons, res: int) -> np.ndarray:
    """:func:`latlng_to_cell` over arrays, bit for bit (``uint64`` ids): the
    scalar's arithmetic in the same order, and ``np.rint`` rounds half to
    even exactly like ``round``. The scalar stays the tests' reference."""
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    bad = ~((lats >= -90.0) & (lats <= 90.0))
    if bad.any():
        raise ValueError(f"latitude out of range: {lats[bad][0]}")
    s = EDGE_LENGTHS_M[res]
    x = normalize_lon(lons) * METERS_PER_DEG_LAT
    if not np.isfinite(x).all():
        raise ValueError("longitude is not finite")
    y = lats * METERS_PER_DEG_LAT
    xf = (_SQRT3 / 3.0 * x - y / 3.0) / s
    zf = (2.0 / 3.0 * y) / s
    yf = -xf - zf
    rx, ry, rz = np.rint(xf), np.rint(yf), np.rint(zf)
    dx, dy, dz = np.abs(rx - xf), np.abs(ry - yf), np.abs(rz - zf)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & ~(dy > dz)
    return pack_cells(res, np.where(fix_x, -ry - rz, rx), np.where(fix_z, -rx - ry, rz))


def cell_to_latlng(cell: int) -> tuple[float, float]:
    """Centre of a cell as ``(lat, lon)``."""
    res, q, r = unpack_cell(cell)
    s = EDGE_LENGTHS_M[res]
    x = s * _SQRT3 * (q + r / 2.0)
    y = s * 1.5 * r
    return _unproject(x, y)


def cell_boundary(cell: int) -> list[tuple[float, float]]:
    """The six corner vertices of a cell as ``[(lat, lon), ...]``."""
    res, q, r = unpack_cell(cell)
    s = EDGE_LENGTHS_M[res]
    cx = s * _SQRT3 * (q + r / 2.0)
    cy = s * 1.5 * r
    corners = []
    for k in range(6):
        ang = math.pi / 180.0 * (60.0 * k - 30.0)
        corners.append(_unproject(cx + s * math.cos(ang), cy + s * math.sin(ang)))
    return corners


#: Axial direction vectors of the six hexagon neighbours.
_NEIGHBOR_DIRS: tuple[tuple[int, int], ...] = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def neighbors(cell: int) -> list[int]:
    """The six cells sharing an edge with ``cell``."""
    res, q, r = unpack_cell(cell)
    return [pack_cell(res, q + dq, r + dr) for dq, dr in _NEIGHBOR_DIRS]


def grid_ring(cell: int, k: int) -> list[int]:
    """Cells exactly ``k`` steps away from ``cell`` (the hollow ring)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return [cell]
    res, q, r = unpack_cell(cell)
    ring = []
    # Walk to the ring start, then trace its six sides.
    cq, cr = q + k * _NEIGHBOR_DIRS[4][0], r + k * _NEIGHBOR_DIRS[4][1]
    for side in range(6):
        dq, dr = _NEIGHBOR_DIRS[side]
        for _ in range(k):
            ring.append(pack_cell(res, cq, cr))
            cq, cr = cq + dq, cr + dr
    return ring


def grid_disk(cell: int, k: int) -> list[int]:
    """All cells within grid distance ``k`` of ``cell`` (the filled disk).

    This is the fan-out set the platform uses when a forecast point must be
    shared with its cell actor *and* the neighbouring cell actors so that
    near-boundary encounters are not missed (paper, Section 5.2).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    disk = []
    for ring_k in range(k + 1):
        disk.extend(grid_ring(cell, ring_k))
    return disk


def grid_distance(cell_a: int, cell_b: int) -> int:
    """Hexagon-step distance between two cells of the same resolution."""
    res_a, qa, ra = unpack_cell(cell_a)
    res_b, qb, rb = unpack_cell(cell_b)
    if res_a != res_b:
        raise ValueError(f"cells have different resolutions: {res_a} vs {res_b}")
    dq, dr = qa - qb, ra - rb
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def cell_to_parent(cell: int, parent_res: int | None = None) -> int:
    """The cell at ``parent_res`` (default: one level coarser) whose hexagon
    contains this cell's centre.

    Because the lattice is not perfectly aperture-aligned the containment is
    centre-based rather than exact nesting — sufficient for the hierarchical
    coarsening used by traffic-flow aggregation.
    """
    res = unpack_cell(cell)[0]
    if parent_res is None:
        parent_res = res - 1
    if not 0 <= parent_res <= res:
        raise ValueError(f"parent resolution must be in [0, {res}], got {parent_res}")
    if parent_res == res:
        return cell
    lat, lon = cell_to_latlng(cell)
    return latlng_to_cell(lat, lon, parent_res)
