"""Cross-cutting integration tests: settling, determinism and
collision-CPA properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ais.datasets import proximity_scenario
from repro.events.collision import trajectories_intersect
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig
from tests.forecasts import make_forecast


class TestThreadedPlatform:
    def test_housekeeping_returns_settled(self):
        """``housekeeping`` prunes both cell tables in place: when it
        returns, nothing it caused is still queued."""
        scenario = proximity_scenario(
            n_event_pairs=4, n_near_miss_pairs=1, n_background=2, duration_s=3_000.0, seed=13
        )
        platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
        try:
            platform.publish_messages(scenario.result.messages)
            platform.process_available()
            assert platform.proximity_cell_count + platform.collision_cell_count > 20
            platform.housekeeping()
            # A pure check: nothing may still be queued.
            assert platform.system.run_until_idle() == 0
        finally:
            platform.shutdown()

    def test_deterministic_mode_is_reproducible(self):
        scenario = proximity_scenario(
            n_event_pairs=3, n_near_miss_pairs=1, n_background=1, duration_s=2_400.0, seed=19
        )

        def run():
            platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
            platform.publish_messages(scenario.result.messages)
            platform.process_available()
            return (
                platform.api.event_count("proximity"),
                platform.api.event_count("collision"),
                platform.vessel_count,
            )

        assert run() == run()


def _straight_forecast(mmsi, t0, lat0, lon0, dlat, dlon):
    return make_forecast(
        mmsi, [(t0 + 300.0 * k, lat0 + dlat * k, lon0 + dlon * k) for k in range(7)]
    )


class TestCollisionCPAProperties:
    @given(offset_deg=st.floats(min_value=0.001, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_parallel_cpa_equals_offset(self, offset_deg):
        """For same-course parallel tracks the reported minimum distance is
        the lateral offset (within the equirectangular approximation)."""
        a = _straight_forecast(1, 0.0, 38.0, 23.0, 0.01, 0.0)
        b = _straight_forecast(2, 0.0, 38.0, 23.0 + offset_deg, 0.01, 0.0)
        hit = trajectories_intersect(a, b, spatial_threshold_m=1e9, temporal_threshold_s=60.0)
        expected = offset_deg * 111_194.9266 * np.cos(np.radians(38.0))
        assert hit.min_distance_m == pytest.approx(expected, rel=0.02)

    @given(shift_s=st.floats(min_value=0.0, max_value=900.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, shift_s):
        """Intersection is symmetric in its arguments."""
        a = _straight_forecast(1, 0.0, 38.0, 23.0, 0.01, 0.0)
        b = _straight_forecast(2, shift_s, 38.3, 23.02, -0.01, 0.0)
        h1 = trajectories_intersect(a, b, spatial_threshold_m=5_000.0)
        h2 = trajectories_intersect(b, a, spatial_threshold_m=5_000.0)
        assert (h1 is None) == (h2 is None)
        if h1 is not None:
            assert h1.min_distance_m == pytest.approx(h2.min_distance_m)
            assert h1.pair == h2.pair

    @given(thr=st.floats(min_value=50.0, max_value=5_000.0))
    @settings(max_examples=40, deadline=None)
    def test_threshold_monotonicity(self, thr):
        """Anything found under a tight spatial threshold is also found
        under a looser one."""
        a = _straight_forecast(1, 0.0, 38.0, 23.0, 0.01, 0.0)
        b = _straight_forecast(2, 0.0, 38.3, 23.01, -0.01, 0.0)
        tight = trajectories_intersect(a, b, spatial_threshold_m=thr)
        loose = trajectories_intersect(a, b, spatial_threshold_m=thr * 2.0)
        if tight is not None:
            assert loose is not None
            assert loose.min_distance_m <= tight.min_distance_m + 1e-9

    def test_reported_encounter_time_within_horizon(self):
        a = _straight_forecast(1, 0.0, 38.0, 23.40, 0.0, 0.0333)
        b = _straight_forecast(2, 0.0, 38.1, 23.50, -0.0333, 0.0)
        hit = trajectories_intersect(a, b, spatial_threshold_m=2_000.0)
        assert hit is not None
        assert 0.0 <= hit.t_expected <= 1_800.0
