"""Tests for proximity and switch-off detection."""

import pytest

from repro.events import ProximityDetector, SwitchOffDetector
from repro.models import LinearKinematicModel
from repro.platform import Platform
from repro.platform.messages import ProximityAlert


class TestProximityDetector:
    def test_close_pair_detected(self):
        det = ProximityDetector(distance_threshold_m=500.0)
        det.observe(1, t=0.0, lat=37.90, lon=23.60)
        events = det.observe(2, t=10.0, lat=37.901, lon=23.60)  # ~111 m away
        assert len(events) == 1
        assert events[0].pair == (1, 2)
        assert events[0].distance_m < 200.0

    def test_distant_pair_ignored(self):
        det = ProximityDetector(distance_threshold_m=500.0)
        det.observe(1, t=0.0, lat=37.90, lon=23.60)
        assert det.observe(2, t=10.0, lat=37.95, lon=23.60) == []

    def test_stale_observation_ignored(self):
        det = ProximityDetector(distance_threshold_m=500.0, time_window_s=60.0)
        det.observe(1, t=0.0, lat=37.90, lon=23.60)
        assert det.observe(2, t=120.0, lat=37.901, lon=23.60) == []

    def test_every_close_observation_is_reported(self):
        """The detector keeps no debounce state: repeats are hits too, and
        the pair's owner vessel actor debounces them."""
        det = ProximityDetector(distance_threshold_m=500.0)
        det.observe(1, t=0.0, lat=37.90, lon=23.60)
        first = det.observe(2, t=10.0, lat=37.901, lon=23.60)
        det.observe(1, t=20.0, lat=37.90, lon=23.60)
        repeat = det.observe(2, t=30.0, lat=37.901, lon=23.60)
        assert [e.t for e in first + repeat] == [10.0, 30.0]
        assert list(det.export_state()) == ["last_seen"]

    def test_debounce_suppresses_repeats(self):
        """The detector's repeats go to the pair's owner vessel actor, which
        records one event per pair and debounce bucket."""
        det = ProximityDetector(distance_threshold_m=500.0)
        platform = Platform(forecaster=LinearKinematicModel())
        hits = []
        for t in (0.0, 20.0):
            det.observe(1, t=t, lat=37.90, lon=23.60)
            hits += det.observe(2, t=t + 10.0, lat=37.901, lon=23.60)
        assert len(hits) == 2
        for event in hits:
            platform.wiring.vessel_router.tell(event.pair[0], ProximityAlert(event=event))
        platform.system.run_until_idle()
        platform.wiring.writer_ref.flush()
        platform.system.run_until_idle()
        assert platform.kvstore.llen("events:proximity") == 1

    def test_self_proximity_impossible(self):
        det = ProximityDetector()
        det.observe(1, t=0.0, lat=37.90, lon=23.60)
        assert det.observe(1, t=1.0, lat=37.90, lon=23.60) == []

    def test_three_vessels_pairwise(self):
        det = ProximityDetector(distance_threshold_m=1_000.0)
        det.observe(1, t=0.0, lat=37.900, lon=23.60)
        det.observe(2, t=1.0, lat=37.901, lon=23.60)
        events = det.observe(3, t=2.0, lat=37.902, lon=23.60)
        assert {e.pair for e in events} == {(1, 3), (2, 3)}

    def test_prune_bounds_memory(self):
        det = ProximityDetector(time_window_s=60.0)
        for i in range(10):
            det.observe(i, t=float(i), lat=37.0 + i, lon=23.0)
        assert det.tracked_vessels == 10
        dropped = det.prune(now=1_000.0)
        assert dropped == 10
        assert det.tracked_vessels == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ProximityDetector(distance_threshold_m=0.0)

    def test_event_midpoint(self):
        det = ProximityDetector(distance_threshold_m=500.0)
        det.observe(1, t=0.0, lat=37.900, lon=23.60)
        ev = det.observe(2, t=1.0, lat=37.902, lon=23.60)[0]
        assert ev.lat == pytest.approx(37.901)


class TestSwitchOffDetector:
    def test_silent_moving_vessel_flagged(self):
        det = SwitchOffDetector(gap_factor=20.0, min_gap_s=900.0)
        det.observe(1, t=0.0, lat=37.9, lon=23.6, sog=12.0)
        events = det.check(now=1_000.0)
        assert len(events) == 1
        assert events[0].mmsi == 1
        assert events[0].silence_s == pytest.approx(1_000.0)

    def test_recent_vessel_not_flagged(self):
        det = SwitchOffDetector()
        det.observe(1, t=0.0, lat=37.9, lon=23.6, sog=12.0)
        assert det.check(now=100.0) == []

    def test_anchored_vessel_not_flagged(self):
        det = SwitchOffDetector(moving_threshold_kn=1.0)
        det.observe(1, t=0.0, lat=37.9, lon=23.6, sog=0.1)
        assert det.check(now=10_000.0) == []

    def test_flag_cleared_on_new_message(self):
        det = SwitchOffDetector()
        det.observe(1, t=0.0, lat=37.9, lon=23.6, sog=12.0)
        assert len(det.check(now=1_000.0)) == 1
        assert det.check(now=2_000.0) == []  # still silent, already flagged
        det.observe(1, t=2_100.0, lat=37.9, lon=23.6, sog=12.0)
        assert len(det.check(now=4_000.0)) == 1  # silent again -> new event

    def test_out_of_order_message_ignored(self):
        det = SwitchOffDetector()
        det.observe(1, t=100.0, lat=37.9, lon=23.6, sog=12.0)
        det.observe(1, t=50.0, lat=0.0, lon=0.0, sog=12.0)
        events = det.check(now=1_100.0)
        assert events[0].t_last_message == 100.0
        assert events[0].last_lat == 37.9

    def test_expected_gap_scales_with_speed(self):
        det = SwitchOffDetector(gap_factor=100.0, min_gap_s=0.0)
        assert det.expected_gap_s(25.0) < det.expected_gap_s(10.0)

    def test_min_gap_floor(self):
        det = SwitchOffDetector(gap_factor=1.0, min_gap_s=900.0)
        assert det.expected_gap_s(25.0) == 900.0

    def test_multiple_vessels_independent(self):
        det = SwitchOffDetector()
        det.observe(1, t=0.0, lat=37.9, lon=23.6, sog=12.0)
        det.observe(2, t=900.0, lat=38.0, lon=23.7, sog=12.0)
        events = det.check(now=1_000.0)
        assert [e.mmsi for e in events] == [1]
        assert det.tracked_vessels == 2
