"""Tests of pooled per-node voyage replanning.

Mirrors the forecast-service suite's three invariants for the route
optimizer:

* **parity** — a plan produced through the pooled
  :class:`~repro.platform.route_optimizer.RouteOptimizerService` is the
  one :func:`repro.models.voyage.plan_voyage` computes directly: pooling
  changes *when* plans are computed, never what they contain;
* **flush discipline** — batches execute exactly at ``voyage_batch_max``
  or at the linger deadline, stale timers re-arm for queued tails, and
  one degenerate route never sinks its batch;
* **checkpoint safety** — assignment, freshest plan, and the in-flight
  replan marker ride export_state/RestoreState, and a restored twin
  re-pools a replan the dead node's optimizer had swallowed.
"""

from repro.ais.message import AISMessage
from repro.models.voyage import Waypoint, plan_voyage
from repro.platform import Platform, PlatformConfig
from repro.platform.messages import PlanReady, RestoreState
from repro.platform.vessel_actor import VOYAGE_BASE_SPEED_KN

CALM = dict(voyage_optimization=True, weather_seed=0, weather_max_wind_mps=0.1)
DAY = 86_400.0
ROUTE = [(36.0, 14.0)]  # ~360 km due east of the first fix


def make_platform(**overrides) -> Platform:
    defaults = dict(voyage_batch_max=100, voyage_linger_s=2.0, **CALM)
    defaults.update(overrides)
    return Platform(config=PlatformConfig(**defaults))


def vessel_actor(platform: Platform, mmsi: int):
    return platform.system._cells[f"vessel-{mmsi}"].actor


def drain(platform: Platform) -> None:
    """Ingest and run to idle WITHOUT the barrier flush of
    ``process_available`` — leaves pooled plan batches pending."""
    while platform.ingestion.poll_once():
        platform.system.run_until_idle()
    platform.system.run_until_idle()


def first_fix(mmsi: int, t: float = 0.0) -> AISMessage:
    return AISMessage(mmsi=mmsi, t=t, lat=36.0, lon=10.0, sog=12.0, cog=90.0)


class TestPlanParity:
    def test_pooled_plan_matches_direct_plan_voyage(self):
        """The pooled service answers with exactly the plan a direct
        ``plan_voyage`` call over the node's own field computes."""
        platform = make_platform()
        mmsi = 400_000_000
        platform.assign_voyage(mmsi, ROUTE, deadline_t=4 * DAY)
        platform.publish_messages([first_fix(mmsi)])
        platform.process_available()
        pooled = vessel_actor(platform, mmsi).voyage_plan
        assert pooled is not None
        wiring = platform.wiring
        direct = plan_voyage(
            wiring.weather,
            wiring.fuel_model,
            Waypoint(36.0, 10.0),
            (Waypoint(36.0, 14.0),),
            sample_t=0.0,
            depart_t=0.0,
            deadline_t=4 * DAY,
            base_speed_kn=VOYAGE_BASE_SPEED_KN,
        )
        assert pooled == direct
        assert pooled.fingerprint() == direct.fingerprint()
        platform.shutdown()


class TestFlushDiscipline:
    def test_exact_max_batch_flushes_without_timer(self):
        platform = make_platform(voyage_batch_max=2, voyage_linger_s=1e9)
        for i in range(2):
            platform.assign_voyage(400_000_000 + i, ROUTE, deadline_t=4 * DAY)
        platform.publish_messages([first_fix(400_000_000 + i) for i in range(2)])
        drain(platform)
        service = platform.wiring.route_optimizer
        assert service.batches_executed == 1
        assert service.pending_count == 0
        for i in range(2):
            actor = vessel_actor(platform, 400_000_000 + i)
            assert actor.voyage_plan is not None
            assert not actor.pending_plan
        platform.shutdown()

    def test_straggler_flushed_by_linger_timer(self):
        platform = make_platform(voyage_linger_s=2.0)
        mmsi = 400_000_000
        platform.assign_voyage(mmsi, ROUTE, deadline_t=4 * DAY)
        platform.publish_messages([first_fix(mmsi)])
        drain(platform)
        service = platform.wiring.route_optimizer
        actor = vessel_actor(platform, mmsi)
        # Pooled but not executed: the twin is marked in-flight.
        assert service.pending_count == 1
        assert actor.pending_plan and actor.voyage_plan is None
        platform.system.advance_time(2.5)
        platform.system.run_until_idle()
        assert service.pending_count == 0
        assert service.batches_executed == 1
        assert not actor.pending_plan
        assert actor.voyage_plan is not None
        platform.shutdown()

    def test_stale_timer_rearms_for_queued_tail(self):
        """A max-batch flush beats the armed linger timer; a request
        queued behind it still executes at the *next* linger deadline."""
        platform = make_platform(voyage_batch_max=2, voyage_linger_s=5.0)
        for i in range(3):
            platform.assign_voyage(400_000_000 + i, ROUTE, deadline_t=4 * DAY)
        platform.publish_messages([first_fix(400_000_000 + i) for i in range(3)])
        drain(platform)
        service = platform.wiring.route_optimizer
        assert service.batches_executed == 1  # max-batch pair
        assert service.pending_count == 1  # the tail request
        platform.system.advance_time(5.1)  # stale timer: re-arms
        platform.system.run_until_idle()
        assert service.batches_executed == 1
        assert service.pending_count == 1
        platform.system.advance_time(5.1)  # re-armed timer: flushes
        platform.system.run_until_idle()
        assert service.batches_executed == 2
        assert service.pending_count == 0
        platform.shutdown()

    def test_empty_flush_is_a_noop(self):
        platform = make_platform()
        service = platform.wiring.route_optimizer
        assert service.flush() == 0
        assert service.batches_executed == 0
        platform.shutdown()

    def test_degenerate_route_does_not_sink_the_batch(self):
        """One route that makes ``plan_voyage`` raise leaves the other
        requests in the batch intact; its vessel unblocks planless."""
        platform = make_platform(voyage_linger_s=0.0)
        good, bad = 400_000_000, 400_000_001
        service = platform.wiring.route_optimizer
        service.submit(
            good,
            Waypoint(36.0, 10.0),
            (Waypoint(36.0, 14.0),),
            deadline_t=4 * DAY,
            base_speed_kn=12.0,
            sample_t=0.0,
        )
        # No waypoints: plan_voyage raises on this one.
        service.submit(
            bad, Waypoint(36.0, 10.0), (), deadline_t=4 * DAY, base_speed_kn=12.0, sample_t=0.0
        )
        assert service.flush() == 2
        platform.system.run_until_idle()
        assert service.plans_failed == 1
        assert vessel_actor(platform, good).voyage_plan is not None
        assert vessel_actor(platform, bad).voyage_plan is None
        assert not vessel_actor(platform, bad).pending_plan
        platform.shutdown()

    def test_flush_telemetry_histograms(self):
        from repro.telemetry import Telemetry

        platform = make_platform(voyage_batch_max=2, voyage_linger_s=1e9)
        platform.system.telemetry = Telemetry("test")
        for i in range(2):
            platform.assign_voyage(400_000_000 + i, ROUTE, deadline_t=4 * DAY)
        platform.publish_messages([first_fix(400_000_000 + i) for i in range(2)])
        drain(platform)
        registry = platform.system.telemetry.registry
        batch_hist = registry.histogram("voyage_batch_size")
        assert batch_hist.count == 1 and batch_hist.max == 2
        assert registry.histogram("voyage_plan_latency_s").count == 1
        assert registry.counter("voyage_flushes_total", {"reason": "max_batch"}).value == 1
        platform.shutdown()


class TestVoyageEvents:
    def test_divergence_event_reaches_writer_pool(self):
        platform = make_platform()
        mmsi = 400_000_000
        platform.assign_voyage(mmsi, ROUTE, deadline_t=40 * DAY)
        platform.publish_messages([first_fix(mmsi)])
        platform.process_available()  # departure plan lands
        # Sail due north, off the eastbound planned track.
        platform.publish_messages(
            [
                AISMessage(mmsi=mmsi, t=600.0 * i, lat=36.0 + 0.03 * i, lon=10.0, sog=12.0, cog=0.0)
                for i in range(1, 4)
            ]
        )
        platform.process_available()
        assert platform.kvstore.llen("events:route_divergence") >= 1
        assert platform.kvstore.llen("events:eta_breach") == 0
        platform.shutdown()

    def test_eta_breach_event_and_mark_dedup(self):
        platform = make_platform()
        mmsi = 400_000_000
        # ~360 km with a deadline three hours out: slack is deeply
        # negative, so the departure plan itself breaches.
        platform.assign_voyage(mmsi, ROUTE, deadline_t=3 * 3600.0)
        platform.publish_messages([first_fix(mmsi)])
        platform.process_available()
        assert platform.kvstore.llen("events:eta_breach") == 1
        # Replaying the same plan at the same stream instant is absorbed
        # by the per-kind emission mark (the crash-recovery dedup).
        actor = vessel_actor(platform, mmsi)
        platform.wiring.vessel_router.tell(mmsi, PlanReady(plan=actor.voyage_plan, t_submitted=0.0))
        platform.process_available()
        assert platform.kvstore.llen("events:eta_breach") == 1
        platform.shutdown()

    def test_storm_avoidance_event_on_diverted_plan(self):
        platform = make_platform(weather_seed=2, weather_max_wind_mps=26.0)
        mmsi = 400_000_000
        platform.assign_voyage(mmsi, [(39.0, 3.0)], deadline_t=9 * DAY)
        platform.publish_messages(
            [AISMessage(mmsi=mmsi, t=0.0, lat=36.0, lon=8.0, sog=12.0, cog=315.0)]
        )
        platform.process_available()
        actor = vessel_actor(platform, mmsi)
        assert actor.voyage_plan is not None and actor.voyage_plan.diverted
        assert platform.kvstore.llen("events:storm_avoidance") == 1
        platform.shutdown()


class TestVoyageCheckpoint:
    def make_source(self, **overrides) -> tuple[Platform, int]:
        platform = make_platform(**overrides)
        mmsi = 500_000_000
        platform.assign_voyage(mmsi, ROUTE, deadline_t=4 * DAY)
        platform.publish_messages([first_fix(mmsi)])
        return platform, mmsi

    def test_plan_state_rides_export_state(self):
        source, mmsi = self.make_source()
        source.process_available()
        state = vessel_actor(source, mmsi).export_state()
        assert state["voyage"] is not None
        assert state["voyage_plan"] is not None
        assert state["pending_plan"] is False

        target = make_platform()
        target.wiring.vessel_router.tell(mmsi, RestoreState(entity="vessel", key=mmsi, state=state))
        target.system.run_until_idle()
        actor = vessel_actor(target, mmsi)
        assert actor.voyage_plan.fingerprint() == state["voyage_plan"].fingerprint()
        assert actor.voyage == state["voyage"]
        assert target.wiring.route_optimizer.pending_count == 0
        source.shutdown()
        target.shutdown()

    def test_inflight_replan_reissued_on_restore(self):
        """A replan swallowed by the dead node's optimizer pool is
        re-pooled from the restored last fix, and the reissued plan is
        the one the lost flush would have produced (same sample_t)."""
        source, mmsi = self.make_source(voyage_batch_max=100, voyage_linger_s=1e9)
        drain(source)  # pooled, never flushed: marker set, plan absent
        state = vessel_actor(source, mmsi).export_state()
        assert state["pending_plan"] is True
        assert state["voyage_plan"] is None

        target = make_platform(voyage_batch_max=100, voyage_linger_s=1e9)
        target.wiring.vessel_router.tell(mmsi, RestoreState(entity="vessel", key=mmsi, state=state))
        target.system.run_until_idle()
        actor = vessel_actor(target, mmsi)
        service = target.wiring.route_optimizer
        assert actor.pending_plan
        assert service.pending_count == 1
        service.flush()
        target.system.run_until_idle()
        assert not actor.pending_plan
        assert actor.voyage_plan is not None
        source.shutdown()
        target.shutdown()
