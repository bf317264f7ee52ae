"""The one-pass route builder against the scalar one it replaced.

``route_waypoints`` builds a fleet's routes as flat arrays in one pass;
``tests/route_oracle.py`` keeps the waypoint-by-waypoint builder. The two
must agree bit for bit (no pinned digest: the bits depend on the CPU's SIMD
kernels, the agreement does not), and draw the same numbers from the
caller's ``random.Random``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ais import PORTS, make_route
from repro.ais.fleet import FleetConfig, FleetEngine
from repro.ais.routes import route_waypoints, voyage_modes
from repro.geo.bbox import PAPER_EVAL_BBOX
from tests.route_oracle import reference_build_routes, reference_make_route

BY_NAME = {p.name: p for p in PORTS}
#: Great circles across +-180 degrees.
ANTIMERIDIAN = [
    (BY_NAME["Tokyo"], BY_NAME["Los Angeles"]),
    (BY_NAME["Vancouver"], BY_NAME["Shanghai"]),
]
#: A pair whose scalar and array haversines differ in the last bit.
SPLIT = (BY_NAME["Narvik"], BY_NAME["Copenhagen"])

PAIRS = st.one_of(
    st.sampled_from(ANTIMERIDIAN + [SPLIT]),
    st.lists(st.sampled_from(PORTS), min_size=2, max_size=2, unique=True).map(tuple),
)
AMPLITUDES = st.one_of(st.just(0.0), st.floats(0.0, 40_000.0))
ROUTES = st.tuples(PAIRS, st.integers(2, 96), AMPLITUDES, AMPLITUDES)


def _bits(waypoints) -> list[tuple[str, str]]:
    return [(lat.hex(), lon.hex()) for lat, lon in waypoints]


@given(route=ROUTES, seed=st.integers(0, 2**32))
@settings(deadline=None, max_examples=60)
def test_make_route_is_the_scalar_builder(route, seed):
    (origin, destination), n, corridor, voyage = route
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    built = make_route(origin, destination, rng, n, corridor, voyage)
    oracle = reference_make_route(origin, destination, oracle_rng, n, corridor, voyage)
    assert _bits(built.waypoints) == _bits(oracle.waypoints)
    assert rng.getstate() == oracle_rng.getstate()


@given(routes=st.lists(ROUTES, min_size=1, max_size=8), seed=st.integers(0, 2**32))
@settings(deadline=None, max_examples=40)
def test_a_mixed_fleet_in_one_call_is_each_scalar_route(routes, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    pairs, counts, corridor, voyage = zip(*routes)
    lat, lon, offsets = route_waypoints(
        [o for o, _ in pairs],
        [d for _, d in pairs],
        [voyage_modes(rng) for _ in routes],
        counts,
        corridor,
        voyage,
    )
    assert offsets.tolist() == np.concatenate([[0], np.cumsum(counts)]).tolist()
    built = list(zip(lat.tolist(), lon.tolist()))
    oracle = [
        wp
        for (o, d), n, c, v in routes
        for wp in reference_make_route(o, d, oracle_rng, n, c, v).waypoints
    ]
    assert _bits(built) == _bits(oracle)
    assert rng.getstate() == oracle_rng.getstate()


def test_every_waypoint_count_on_a_pair_whose_distance_bits_split():
    """Narvik -> Copenhagen: a numpy scalar squares through ``pow`` and an
    array multiplies, and the two haversines differ in the last bit here."""
    origin, destination = SPLIT
    counts = list(range(2, 97))
    rng, oracle_rng = random.Random(5), random.Random(5)
    lat, lon, _ = route_waypoints(
        [origin] * len(counts),
        [destination] * len(counts),
        [voyage_modes(rng) for _ in counts],
        counts,
        [25_000.0] * len(counts),
        [6_000.0] * len(counts),
    )
    oracle = [
        wp
        for n in counts
        for wp in reference_make_route(origin, destination, oracle_rng, n).waypoints
    ]
    assert _bits(zip(lat.tolist(), lon.tolist())) == _bits(oracle)


def test_antimeridian_route_crosses_the_line():
    origin, destination = ANTIMERIDIAN[0]
    lons = np.array(make_route(origin, destination, random.Random(0), 48).waypoints)[:, 1]
    assert (np.abs(np.diff(lons)) > 180.0).sum() == 1
    assert np.all(np.abs(lons) <= 180.0)


def test_too_few_waypoints_in_a_fleet_rejected():
    origin, destination = ANTIMERIDIAN[0]
    with pytest.raises(ValueError):
        route_waypoints(
            [origin] * 2, [destination] * 2, [(0.0, 0.0, 0.0)] * 2, [8, 1], [0.0] * 2, [0.0] * 2
        )


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("bbox", [None, PAPER_EVAL_BBOX], ids=["global", "bbox"])
def test_fleet_stream_is_the_scalar_built_fleet(monkeypatch, seed, bbox):
    config = FleetConfig(n_vessels=60, duration_s=1_800.0, seed=seed, bbox=bbox)
    built = FleetEngine(config).run_collect()
    monkeypatch.setattr(FleetEngine, "_build_routes", reference_build_routes)
    oracle = FleetEngine(config).run_collect()
    assert len(built) > 0
    for column in ("mmsi", "t", "lat", "lon", "sog", "cog"):
        a, b = getattr(built, column), getattr(oracle, column)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), column
