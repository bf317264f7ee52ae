"""A hierarchical hexagonal spatial index (the platform's H3 substitute).

The paper uses Uber's H3 index to route AIS positions and forecast points to
*cell actors* (proximity detection) and *collision cells* (collision
forecasting), and to rasterise traffic flow forecasts. What those components
need from the index is:

* a deterministic mapping from (lat, lon, resolution) to a compact cell id,
* hexagonal adjacency (k-ring neighbourhoods) for spatial dilation,
* a resolution hierarchy (parent/child) for coarsening,
* cell geometry (centre, boundary, edge length) for visualisation.

``repro.hexgrid`` provides all of that with an axial hexagonal lattice laid
over an equirectangular projection. Unlike true H3 it is not built on an
icosahedron, so cells distort towards the poles; resolutions are calibrated
so that edge lengths match H3's published values, which keeps event-detection
behaviour equivalent at the mid-latitudes the paper evaluates on.
"""

from repro.hexgrid.cell import (
    CELL_BLOCK_BITS,
    MAX_RESOLUTION,
    cell_block,
    cell_resolution,
    cell_to_string,
    is_valid_cell,
    pack_cell,
    string_to_cell,
    unpack_cell,
)
from repro.hexgrid.index import (
    average_edge_length_m,
    cell_area_m2,
    cell_boundary,
    cell_to_latlng,
    cell_to_parent,
    grid_disk,
    grid_disks,
    grid_distance,
    grid_ring,
    latlng_to_cell,
    latlng_to_cells,
    neighbors,
)

__all__ = [
    "CELL_BLOCK_BITS",
    "MAX_RESOLUTION",
    "average_edge_length_m",
    "cell_area_m2",
    "cell_block",
    "cell_boundary",
    "cell_resolution",
    "cell_to_latlng",
    "cell_to_parent",
    "cell_to_string",
    "grid_disk",
    "grid_disks",
    "grid_distance",
    "grid_ring",
    "is_valid_cell",
    "latlng_to_cell",
    "latlng_to_cells",
    "neighbors",
    "pack_cell",
    "string_to_cell",
    "unpack_cell",
]
