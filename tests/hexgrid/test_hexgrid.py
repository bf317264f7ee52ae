"""Unit and property tests for the hexagonal spatial index."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geo import haversine_m
from repro.geo.constants import METERS_PER_DEG_LAT
from repro.hexgrid import (
    MAX_RESOLUTION,
    average_edge_length_m,
    cell_area_m2,
    cell_boundary,
    cell_resolution,
    cell_to_latlng,
    cell_to_parent,
    cell_to_string,
    grid_disk,
    grid_distance,
    grid_ring,
    is_valid_cell,
    latlng_to_cell,
    latlng_to_cells,
    neighbors,
    pack_cell,
    string_to_cell,
    unpack_cell,
)

LATS = st.floats(min_value=-75.0, max_value=75.0)
LONS = st.floats(min_value=-179.0, max_value=179.0)
RESOLUTIONS = st.integers(min_value=3, max_value=11)


class TestCellCodec:
    def test_pack_unpack_roundtrip(self):
        cell = pack_cell(8, 1234, -987)
        assert unpack_cell(cell) == (8, 1234, -987)

    def test_resolution_extraction(self):
        assert cell_resolution(pack_cell(5, 0, 0)) == 5

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            pack_cell(16, 0, 0)
        with pytest.raises(ValueError):
            pack_cell(-1, 0, 0)

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            pack_cell(8, 1 << 40, 0)

    def test_negative_id_invalid(self):
        assert not is_valid_cell(-5)

    def test_string_roundtrip(self):
        cell = pack_cell(9, -100, 2000)
        assert string_to_cell(cell_to_string(cell)) == cell

    @given(res=st.integers(0, MAX_RESOLUTION),
           q=st.integers(-10_000, 10_000), r=st.integers(-10_000, 10_000))
    @settings(max_examples=100)
    def test_roundtrip_property(self, res, q, r):
        assert unpack_cell(pack_cell(res, q, r)) == (res, q, r)


class TestIndexing:
    @given(lat=LATS, lon=LONS, res=RESOLUTIONS)
    @settings(max_examples=100)
    def test_center_reindexes_to_same_cell(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        clat, clon = cell_to_latlng(cell)
        assert latlng_to_cell(clat, clon, res) == cell

    @given(lat=LATS, lon=LONS, res=RESOLUTIONS)
    @settings(max_examples=100)
    def test_point_within_circumradius_of_center(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        clat, clon = cell_to_latlng(cell)
        # Projected circumradius == edge length; ground distance distorts by
        # at most 1/cos(lat) along longitude, so allow that factor.
        d = haversine_m(lat, lon, clat, clon)
        assert d <= average_edge_length_m(res) * 2.5

    def test_deterministic(self):
        a = latlng_to_cell(37.9, 23.6, 8)
        b = latlng_to_cell(37.9, 23.6, 8)
        assert a == b

    def test_distinct_points_far_apart_get_distinct_cells(self):
        a = latlng_to_cell(37.9, 23.6, 8)
        b = latlng_to_cell(38.9, 24.6, 8)
        assert a != b

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError):
            latlng_to_cell(95.0, 0.0, 8)

    def test_edge_lengths_follow_aperture_seven(self):
        for res in range(MAX_RESOLUTION):
            ratio = average_edge_length_m(res) / average_edge_length_m(res + 1)
            assert ratio == pytest.approx(7.0 ** 0.5, rel=1e-9)

    def test_res8_edge_matches_h3(self):
        # H3 res-8 average edge length is ~461.35 m.
        assert average_edge_length_m(8) == pytest.approx(461.35, rel=0.01)

    def test_cell_area_positive_and_decreasing(self):
        areas = [cell_area_m2(r) for r in range(MAX_RESOLUTION + 1)]
        assert all(a > 0 for a in areas)
        assert all(a > b for a, b in zip(areas, areas[1:]))


class TestNeighborhoods:
    @given(lat=LATS, lon=LONS, res=RESOLUTIONS)
    @settings(max_examples=60)
    def test_six_distinct_neighbors(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        nbrs = neighbors(cell)
        assert len(nbrs) == 6
        assert len(set(nbrs)) == 6
        assert cell not in nbrs

    @given(lat=LATS, lon=LONS, res=RESOLUTIONS)
    @settings(max_examples=60)
    def test_neighbors_at_distance_one(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        assert all(grid_distance(cell, n) == 1 for n in neighbors(cell))

    @given(lat=LATS, lon=LONS, res=RESOLUTIONS)
    @settings(max_examples=60)
    def test_neighborhood_symmetry(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        assert all(cell in neighbors(n) for n in neighbors(cell))

    @given(lat=LATS, lon=LONS, res=RESOLUTIONS, k=st.integers(0, 4))
    @settings(max_examples=60)
    def test_ring_size_and_distance(self, lat, lon, res, k):
        cell = latlng_to_cell(lat, lon, res)
        ring = grid_ring(cell, k)
        expected = 1 if k == 0 else 6 * k
        assert len(ring) == expected
        assert len(set(ring)) == expected
        assert all(grid_distance(cell, c) == k for c in ring)

    @given(lat=LATS, lon=LONS, res=RESOLUTIONS, k=st.integers(0, 4))
    @settings(max_examples=60)
    def test_disk_size(self, lat, lon, res, k):
        cell = latlng_to_cell(lat, lon, res)
        disk = grid_disk(cell, k)
        expected = 1 + 3 * k * (k + 1)
        assert len(disk) == expected
        assert len(set(disk)) == expected
        assert all(grid_distance(cell, c) <= k for c in disk)

    def test_negative_k_rejected(self):
        cell = latlng_to_cell(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            grid_ring(cell, -1)
        with pytest.raises(ValueError):
            grid_disk(cell, -1)

    def test_grid_distance_mixed_resolutions_rejected(self):
        a = latlng_to_cell(0.0, 0.0, 8)
        b = latlng_to_cell(0.0, 0.0, 9)
        with pytest.raises(ValueError):
            grid_distance(a, b)

    @given(lat=LATS, lon=LONS, res=RESOLUTIONS)
    @settings(max_examples=40)
    def test_grid_distance_triangle_inequality(self, lat, lon, res):
        a = latlng_to_cell(lat, lon, res)
        b = latlng_to_cell(min(lat + 0.5, 75.0), lon, res)
        c = latlng_to_cell(lat, min(lon + 0.5, 179.0), res)
        assert grid_distance(a, c) <= grid_distance(a, b) + grid_distance(b, c)


class TestHierarchy:
    @given(lat=LATS, lon=LONS, res=st.integers(4, 11))
    @settings(max_examples=60)
    def test_parent_is_coarser(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        parent = cell_to_parent(cell)
        assert cell_resolution(parent) == res - 1

    @given(lat=LATS, lon=LONS, res=st.integers(4, 11))
    @settings(max_examples=60)
    def test_parent_contains_child_center(self, lat, lon, res):
        cell = latlng_to_cell(lat, lon, res)
        parent = cell_to_parent(cell)
        clat, clon = cell_to_latlng(cell)
        assert latlng_to_cell(clat, clon, res - 1) == parent

    def test_parent_same_res_is_identity(self):
        cell = latlng_to_cell(37.9, 23.6, 8)
        assert cell_to_parent(cell, 8) == cell

    def test_parent_res_out_of_range(self):
        cell = latlng_to_cell(37.9, 23.6, 8)
        with pytest.raises(ValueError):
            cell_to_parent(cell, 9)

    def test_multi_level_parent(self):
        cell = latlng_to_cell(37.9, 23.6, 10)
        parent = cell_to_parent(cell, 5)
        assert cell_resolution(parent) == 5


class TestBoundary:
    def test_six_corners(self):
        cell = latlng_to_cell(37.9, 23.6, 8)
        corners = cell_boundary(cell)
        assert len(corners) == 6

    def test_corners_near_center(self):
        cell = latlng_to_cell(37.9, 23.6, 8)
        clat, clon = cell_to_latlng(cell)
        for lat, lon in cell_boundary(cell):
            d = haversine_m(clat, clon, lat, lon)
            assert d <= average_edge_length_m(8) * 1.6


class TestVectorisedKernel:
    """``latlng_to_cells`` returns exactly the scalar ``latlng_to_cell`` ids."""

    ALL_RESOLUTIONS = st.integers(0, MAX_RESOLUTION)
    POINTS = st.lists(
        st.tuples(
            st.one_of(st.floats(-90.0, 90.0), st.sampled_from([90.0, -90.0, 0.0])),
            st.floats(-540.0, 540.0),
        ),
        max_size=40,
    )

    @staticmethod
    def scalar(lats, lons, res):
        return [latlng_to_cell(lat, lon, res) for lat, lon in zip(lats, lons)]

    @given(points=POINTS, res=ALL_RESOLUTIONS)
    @settings(max_examples=200)
    def test_matches_scalar_with_wrapping_longitudes_and_poles(self, points, res):
        lats = [lat for lat, _ in points]
        lons = [lon for _, lon in points]
        cells = latlng_to_cells(lats, lons, res)
        assert cells.dtype == np.uint64
        assert cells.tolist() == self.scalar(lats, lons, res)

    @given(res=ALL_RESOLUTIONS,
           axial=st.lists(st.tuples(st.integers(-4000, 4000),
                                    st.integers(-4000, 4000)), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_matches_scalar_on_rounding_ties(self, res, axial):
        """Points projected from half-integer axial coordinates sit on hex
        edges and corners: ``round`` / ``np.rint`` see exact .5 fractions
        and the cube-rounding distances tie."""
        s = average_edge_length_m(res)
        lats, lons = [], []
        for q2, r2 in axial:
            q, r = q2 / 2.0, r2 / 2.0
            lats.append(s * 1.5 * r / METERS_PER_DEG_LAT)
            lons.append(s * 3.0 ** 0.5 * (q + r / 2.0) / METERS_PER_DEG_LAT)
        assume(all(-90.0 <= lat <= 90.0 for lat in lats))
        assert latlng_to_cells(lats, lons, res).tolist() == self.scalar(lats, lons, res)

    def test_empty_input(self):
        cells = latlng_to_cells([], [], 8)
        assert cells.dtype == np.uint64 and cells.tolist() == []

    def test_out_of_range_latitude_raises_like_the_scalar(self):
        with pytest.raises(ValueError, match="latitude"):
            latlng_to_cell(90.5, 0.0, 8)
        with pytest.raises(ValueError, match="latitude"):
            latlng_to_cells([10.0, 90.5], [0.0, 0.0], 8)
        with pytest.raises(ValueError, match="latitude"):
            latlng_to_cells([float("nan")], [0.0], 8)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_longitude_raises_like_the_scalar(self):
        for lon in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                latlng_to_cell(0.0, lon, 8)
            with pytest.raises(ValueError, match="longitude"):
                latlng_to_cells([0.0], [lon], 8)
