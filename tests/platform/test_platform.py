"""End-to-end tests of the integrated platform."""

import pytest

from repro.ais.datasets import proximity_scenario
from repro.ais.message import AISMessage
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig


@pytest.fixture(scope="module")
def small_scenario():
    return proximity_scenario(n_event_pairs=5, n_near_miss_pairs=2,
                              n_background=3, duration_s=3_600.0, seed=5)


@pytest.fixture(scope="module")
def processed_platform(small_scenario):
    platform = Platform(forecaster=LinearKinematicModel(),
                        config=PlatformConfig(record_metrics=True))
    platform.publish_messages(small_scenario.result.messages)
    platform.process_available()
    return platform


class TestIngestionToActors:
    def test_every_vessel_gets_an_actor(self, processed_platform,
                                        small_scenario):
        assert processed_platform.vessel_count == small_scenario.n_vessels

    def test_messages_dispatched(self, processed_platform, small_scenario):
        assert (processed_platform.ingestion.messages_ingested
                == small_scenario.n_messages)
        assert processed_platform.ingestion.lag == 0

    def test_cell_and_collision_actors_created(self, processed_platform):
        assert processed_platform.cell_actor_count > 0
        assert processed_platform.collision_cell_count > 0

    def test_metrics_sampled_for_vessel_messages_only(self, processed_platform):
        counts, durations = processed_platform.system.metrics.as_arrays()
        assert len(durations) > 0
        # Population figure is vessel actors, which never exceeds the fleet.
        assert counts.max() <= processed_platform.vessel_count


class TestStateStore:
    def test_vessel_state_snapshot(self, processed_platform, small_scenario):
        mmsi = small_scenario.result.messages[0].mmsi
        state = processed_platform.api.vessel_state(mmsi)
        assert state is not None
        assert {"t", "lat", "lon", "sog", "cog"} <= set(state)

    def test_vessel_forecast_available(self, processed_platform,
                                       small_scenario):
        # The kinematic model forecasts from the first fix, so every vessel
        # with at least one kept fix has a forecast track of 7 positions.
        mmsi = small_scenario.result.messages[0].mmsi
        forecast = processed_platform.api.vessel_forecast(mmsi)
        assert forecast is not None
        assert len(forecast) == 7

    def test_active_vessel_listing(self, processed_platform, small_scenario):
        active = processed_platform.api.active_vessels()
        assert len(active) == small_scenario.n_vessels
        assert processed_platform.api.vessel_count() == small_scenario.n_vessels

    def test_unknown_vessel_is_none(self, processed_platform):
        assert processed_platform.api.vessel_state(999999999) is None


class TestEvents:
    def test_proximity_events_detected(self, processed_platform,
                                       small_scenario):
        detected = processed_platform.api.event_count("proximity")
        # Every ground-truth event pair should be seen at least once; the
        # writer dedupes per pair within the debounce window.
        gt_pairs = {e.pair for e in small_scenario.events}
        assert detected >= len(gt_pairs) * 0.6

    def test_collision_forecasts_logged(self, processed_platform):
        events = processed_platform.api.recent_events("collision")
        assert len(events) > 0
        first = events[0]
        assert first.lead_time_s >= 0.0
        assert first.min_distance_m <= 500.0

    def test_event_list_is_bounded_by_limit(self, processed_platform):
        assert len(processed_platform.api.recent_events("proximity",
                                                        limit=1)) <= 1

    def test_vessel_actors_receive_alert_flags(self, processed_platform,
                                               small_scenario):
        flagged = 0
        for event in small_scenario.events:
            for mmsi in event.pair:
                state = processed_platform.api.vessel_state(mmsi)
                if state and state.get("event_flags"):
                    flagged += 1
        assert flagged > 0

    def test_pubsub_notification(self, small_scenario):
        platform = Platform(forecaster=LinearKinematicModel())
        sub = platform.api.subscribe_events("collision")
        platform.publish_messages(small_scenario.result.messages)
        platform.process_available()
        assert sub.pending() > 0


class TestTrafficFlow:
    def test_flow_snapshot_populated(self, processed_platform):
        vtff = processed_platform.flow_snapshot()
        assert len(vtff.grid.active_cells()) > 0

    def test_traffic_flow_query(self, processed_platform):
        windows = processed_platform.flow_snapshot().grid.windows()
        flow = processed_platform.api.traffic_flow(windows[-1])
        assert flow
        assert all(count >= 1 for count in flow.values())

    def test_traffic_heat_levels(self, processed_platform):
        windows = processed_platform.flow_snapshot().grid.windows()
        heat = processed_platform.api.traffic_heat(windows[-1])
        assert set(heat) == set(
            processed_platform.api.traffic_flow(windows[-1]))


class TestNMEAIngestPath:
    def test_raw_sentences_are_parsed_and_processed(self, small_scenario):
        platform = Platform(forecaster=LinearKinematicModel())
        messages = small_scenario.result.messages[:500]
        platform.publish_nmea(Platform.to_nmea(messages))
        dispatched = platform.process_available()
        assert dispatched == 500
        assert platform.ingestion.parse_errors == 0
        assert platform.vessel_count > 0

    def test_corrupt_sentences_counted_not_fatal(self):
        platform = Platform(forecaster=LinearKinematicModel())
        platform.publish_nmea([("!AIVDM,garbage*00", 0.0)])
        platform.process_available()
        assert platform.ingestion.parse_errors == 1


class TestSwitchOffDetection:
    def test_switchoff_event_flows_to_store(self):
        platform = Platform(forecaster=LinearKinematicModel())
        # A moving vessel that reports for 10 minutes then goes silent,
        # followed by another vessel's messages advancing stream time.
        msgs = [AISMessage(mmsi=1, t=30.0 * i, lat=37.0, lon=23.0,
                           sog=12.0, cog=90.0) for i in range(20)]
        msgs += [AISMessage(mmsi=2, t=600.0 + 30.0 * i, lat=38.0, lon=24.0,
                            sog=10.0, cog=180.0) for i in range(200)]
        platform.publish_messages(msgs)
        platform.process_available()
        assert platform.api.event_count("switchoff") >= 1
        event = platform.api.recent_events("switchoff")[0]
        assert event.mmsi == 1


class TestHousekeeping:
    def test_prune_keeps_cells_bounded(self, small_scenario):
        platform = Platform(forecaster=LinearKinematicModel())
        platform.publish_messages(small_scenario.result.messages)
        platform.process_available()
        platform.housekeeping()  # must not raise; prunes stale detectors
        assert platform.actor_count > 0


class TestConfigValidation:
    def test_bad_downsample(self):
        with pytest.raises(ValueError):
            PlatformConfig(downsample_s=-1.0)


class TestDownsampling:
    """Section 4.2's rule in the vessel actor: a fix is kept only
    ``downsample_s`` after the last kept one."""

    def kept(self, config: PlatformConfig) -> tuple[int, float]:
        platform = Platform(forecaster=LinearKinematicModel(), config=config)
        platform.publish_messages(
            AISMessage(mmsi=1, t=10.0 * i, lat=37.0, lon=23.0 + 1e-4 * i, sog=2.0, cog=90.0)
            for i in range(12))
        platform.process_available()
        actor = platform.system._cells["vessel-1"].actor
        return actor.kept_fixes, actor.last_kept_t

    def test_default_keeps_one_fix_in_three(self):
        assert self.kept(PlatformConfig()) == (4, 90.0)

    def test_zero_keeps_every_fix(self):
        assert self.kept(PlatformConfig(downsample_s=0.0)) == (12, 110.0)


class TestWarehouseCompactionHook:
    def test_compact_warehouse_folds_journal(self, small_scenario, tmp_path):
        from repro.kvstore import StorePersistence
        from repro.warehouse import Warehouse, WarehouseCompactor

        platform = Platform(forecaster=LinearKinematicModel(),
                            config=PlatformConfig(record_telemetry=True))
        persistence = StorePersistence(str(tmp_path / "kv"),
                                       compact_every_ops=0)
        platform.kvstore.bind_persistence(persistence)
        platform.publish_messages(small_scenario.result.messages)
        platform.process_available()

        warehouse = Warehouse(str(tmp_path / "wh"))
        compactor = WarehouseCompactor(warehouse)
        stats = platform.compact_warehouse(compactor)
        assert stats["rows"] > 0
        assert warehouse.total_rows("positions") > 0
        assert warehouse.journal_seq == persistence.seq
        # The hook attached the platform registry: warehouse counters
        # land beside the pipeline metrics.
        snapshot = platform.system.telemetry.registry.snapshot()
        assert snapshot["counters"]["warehouse_commits_total"] >= 1
        # Idempotent when nothing new was journaled.
        assert platform.compact_warehouse(compactor)["rows"] == 0
        persistence.close()

    def test_compact_warehouse_requires_persistence(self, tmp_path):
        from repro.warehouse import Warehouse, WarehouseCompactor

        platform = Platform(forecaster=LinearKinematicModel())
        compactor = WarehouseCompactor(Warehouse(str(tmp_path / "wh")))
        with pytest.raises(RuntimeError, match="persistence"):
            platform.compact_warehouse(compactor)
