"""Tests of pooled fleet-wide inference and the collision-cell fast path.

Three invariants the batched hot path must preserve:

* **bitwise parity** — a forecast produced through the pooled
  :class:`~repro.platform.forecast_service.ForecastService` is identical,
  bit for bit, to the per-vessel synchronous call (mixed full and padded
  windows included), because both run through ``forecast_batch``;
* **flush discipline** — batches execute exactly at ``forecast_batch_max``
  or at the linger deadline, stale timers re-arm for queued tails, and the
  in-flight marker survives a checkpoint taken mid-linger;
* **single-occupant stash** — :class:`CollisionCellRouter` holding a sole
  occupant's forecast in its stash (no actor spawned) is observationally
  identical to a spawned cell actor: re-shares overwrite, a second vessel
  materialises the actor with arrival order preserved, prune/restore/
  checkpoint all behave as the actor would.
"""

import numpy as np

from repro.ais.datasets import proximity_scenario
from repro.ais.message import AISMessage
from repro.geo.track import Position
from repro.ml import StandardScaler
from repro.models import LinearKinematicModel
from repro.models.base import RouteForecast, forecast_mark_times
from repro.models.svrf import SVRFConfig, SVRFModel
from repro.platform import Platform, PlatformConfig
from repro.platform.cell_actor import CollisionCellRouter
from repro.platform.messages import PruneTick, RestoreState

INPUT_STEPS = 6  #: Small S-VRF window: fast tests, same code paths.


def tiny_svrf(seed: int = 0) -> SVRFModel:
    """An S-VRF model that is 'trained' by construction: identity-ish
    scalers instead of a fit, so forecasts are deterministic functions of
    the (seeded) initial weights — all the inference paths run for real."""
    model = SVRFModel(SVRFConfig(hidden=6, dense=8, seed=seed,
                                 input_steps=INPUT_STEPS))
    model.x_scaler = StandardScaler.from_state(
        {"mean": np.zeros(3), "std": np.ones(3)})
    out = model.config.output_steps * 2
    # Small y-std keeps the de-scaled transitions in a plausible range.
    model.y_scaler = StandardScaler.from_state(
        {"mean": np.zeros(out), "std": np.full(out, 1e-3)})
    model.trained = True
    return model


def fixes(mmsi: int, n: int, t0: float = 0.0, lat0: float = 10.0,
          lon0: float = 20.0) -> list[AISMessage]:
    """``n`` kept fixes (30 s apart) on a vessel-specific drifting track."""
    rng = np.random.default_rng(mmsi)
    msgs = []
    lat, lon = lat0, lon0
    for i in range(n):
        lat += 0.001 + rng.uniform(0, 0.0005)
        lon += 0.0005 + rng.uniform(0, 0.0005)
        msgs.append(AISMessage(mmsi=mmsi, t=t0 + 30.0 * i, lat=lat, lon=lon,
                               sog=8.0, cog=45.0))
    return msgs


def vessel_actor(platform: Platform, mmsi: int):
    return platform.system._cells[f"vessel-{mmsi}"].actor


def drain(platform: Platform) -> None:
    """Ingest and run to idle WITHOUT the barrier flush of
    ``process_available`` — leaves pooled batches pending on purpose."""
    while platform.ingestion.poll_once():
        platform.system.run_until_idle()
    platform.system.run_until_idle()


def stationary_forecast(mmsi: int, t0: float = 1_000.0, lat: float = 10.0,
                        lon: float = 20.0) -> RouteForecast:
    positions = [Position(t=t0, lat=lat, lon=lon)]
    positions += [Position(t=t, lat=lat, lon=lon)
                  for t in forecast_mark_times(t0)]
    return RouteForecast(mmsi=mmsi, positions=tuple(positions))


class TestBitwiseParity:
    """Pooled inference == per-vessel inference, bit for bit."""

    def test_forecast_batch_matches_scalar_forecast(self):
        """Model level: one pooled pass over mixed full/padded windows
        reproduces every scalar ``forecast`` call exactly."""
        model = tiny_svrf()
        lengths = [INPUT_STEPS + 1, 3, INPUT_STEPS + 4, 2, INPUT_STEPS + 1]
        histories = []
        for i, n in enumerate(lengths):
            msgs = fixes(200000000 + i, n)
            histories.append([Position(t=m.t, lat=m.lat, lon=m.lon)
                              for m in msgs])
        scalar = [model.forecast(200000000 + i, h,
                                 pad=len(h) < model.min_history)
                  for i, h in enumerate(histories)]
        windows = np.stack([
            model.make_window(np.array([p.t for p in h]),
                              np.array([p.lat for p in h]),
                              np.array([p.lon for p in h]),
                              pad=len(h) < model.min_history)
            for h in histories])
        batched = model.forecast_batch(
            [200000000 + i for i in range(len(histories))],
            windows, [h[-1] for h in histories])
        for one, many in zip(scalar, batched):
            assert one.positions == many.positions  # exact float equality

    def test_batched_platform_matches_unbatched(self):
        """Platform level: identical streams through a batching and a
        non-batching platform leave every vessel with bitwise-identical
        forecasts — including vessels still on padded short windows —
        and the Aegean proximity scenario riding the same stream resolves
        the same proximity and collision events either way."""
        model = tiny_svrf()
        full = [200000000 + i for i in range(4)]
        padded = [300000000 + i for i in range(3)]
        messages = []
        for i, mmsi in enumerate(full):
            messages += fixes(mmsi, INPUT_STEPS + 3, lat0=10.0 + i)
        for i, mmsi in enumerate(padded):
            messages += fixes(mmsi, 3, lat0=30.0 + i)
        messages += proximity_scenario(
            n_event_pairs=4, n_near_miss_pairs=2, n_background=2,
            duration_s=3_600.0, seed=3).result.messages
        messages.sort(key=lambda m: m.t)

        platforms = {}
        for batching in (False, True):
            platform = Platform(
                forecaster=model,
                config=PlatformConfig(forecast_batching=batching,
                                      forecast_batch_max=64))
            for i in range(0, len(messages), 500):
                platform.publish_messages(messages[i:i + 500])
                platform.process_available()
            platforms[batching] = platform

        for kind in ("proximity", "collision"):
            assert platforms[False].api.event_count(kind) \
                == platforms[True].api.event_count(kind) > 0

        service = platforms[True].wiring.forecast_service
        assert service is not None and service.batches_executed >= 1
        assert platforms[False].wiring.forecast_service is None
        for mmsi in full + padded:
            unbatched = vessel_actor(platforms[False], mmsi).latest_forecast
            batched = vessel_actor(platforms[True], mmsi).latest_forecast
            assert unbatched is not None and batched is not None
            assert unbatched.positions == batched.positions
            assert not vessel_actor(platforms[True], mmsi).pending_forecast


class TestFlushDiscipline:
    def make_platform(self, **overrides) -> Platform:
        defaults = dict(forecast_batch_max=100, forecast_linger_s=2.0)
        defaults.update(overrides)
        return Platform(forecaster=LinearKinematicModel(),
                        config=PlatformConfig(**defaults))

    def test_exact_max_batch_flushes_without_timer(self):
        platform = self.make_platform(forecast_batch_max=4,
                                      forecast_linger_s=1e9)
        platform.publish_messages(
            [fixes(400000000 + i, 1)[0] for i in range(4)])
        drain(platform)
        service = platform.wiring.forecast_service
        assert service.batches_executed == 1
        assert service.pending_count == 0
        for i in range(4):
            assert vessel_actor(platform, 400000000 + i).latest_forecast \
                is not None

    def test_straggler_flushed_by_linger_timer(self):
        platform = self.make_platform(forecast_linger_s=2.0)
        platform.publish_messages(fixes(400000000, 1))
        drain(platform)
        service = platform.wiring.forecast_service
        actor = vessel_actor(platform, 400000000)
        # Pooled but not executed: the reply (and state update) is deferred.
        assert service.pending_count == 1
        assert actor.pending_forecast and actor.latest_forecast is None
        platform.system.advance_time(2.5)
        platform.system.run_until_idle()
        assert service.pending_count == 0
        assert service.batches_executed == 1
        assert not actor.pending_forecast
        assert actor.latest_forecast is not None

    def test_empty_flush_is_a_noop(self):
        service = self.make_platform().wiring.forecast_service
        assert service.flush() == 0
        assert service.batches_executed == 0

    def test_stale_timer_rearms_for_queued_tail(self):
        """A max-batch flush beats the armed linger timer; a request queued
        behind it must still execute at the *next* linger deadline."""
        platform = self.make_platform(forecast_batch_max=2,
                                      forecast_linger_s=5.0)
        platform.publish_messages(
            [fixes(400000000 + i, 1)[0] for i in range(3)])
        drain(platform)
        service = platform.wiring.forecast_service
        assert service.batches_executed == 1  # max-batch pair
        assert service.pending_count == 1     # the tail request
        platform.system.advance_time(5.1)     # stale timer: re-arms
        platform.system.run_until_idle()
        assert service.batches_executed == 1
        assert service.pending_count == 1
        platform.system.advance_time(5.1)     # re-armed timer: flushes
        platform.system.run_until_idle()
        assert service.batches_executed == 2
        assert service.pending_count == 0

    def test_flush_telemetry_histograms(self):
        from repro.telemetry import Telemetry
        platform = self.make_platform(forecast_batch_max=3,
                                      forecast_linger_s=1e9)
        platform.system.telemetry = Telemetry("test")
        platform.publish_messages(
            [fixes(400000000 + i, 1)[0] for i in range(3)])
        drain(platform)
        registry = platform.system.telemetry.registry
        batch_hist = registry.histogram("forecast_batch_size")
        assert batch_hist.count == 1 and batch_hist.max == 3
        assert registry.histogram("forecast_latency_s").count == 1
        assert registry.counter("forecast_flushes_total",
                                {"reason": "max_batch"}).value == 1


class TestPendingForecastCheckpoint:
    def make_platform(self) -> Platform:
        return Platform(forecaster=LinearKinematicModel(),
                        config=PlatformConfig(forecast_batch_max=100,
                                              forecast_linger_s=1e9))

    def test_marker_exported_and_reissued_on_restore(self):
        source = self.make_platform()
        source.publish_messages(fixes(500000000, 1))
        drain(source)
        state = vessel_actor(source, 500000000).export_state()
        assert state["pending_forecast"] is True

        target = self.make_platform()
        target.wiring.vessel_router.tell(
            500000000, RestoreState(entity="vessel", key=500000000,
                                    state=state))
        target.system.run_until_idle()
        actor = vessel_actor(target, 500000000)
        service = target.wiring.forecast_service
        # The restored twin re-pooled the in-flight request...
        assert actor.pending_forecast
        assert service.pending_count == 1
        # ...and the next flush completes it normally.
        service.flush()
        target.system.run_until_idle()
        assert not actor.pending_forecast
        assert actor.latest_forecast is not None


class TestCollisionCellStash:
    CELL = 0x8A2A1072B59FFFF  #: any H3-ish uint64 works as a router key

    def make_router(self, **overrides):
        platform = Platform(forecaster=LinearKinematicModel(),
                            config=PlatformConfig(**overrides))
        router = platform.wiring.collision_router
        assert isinstance(router, CollisionCellRouter)
        return platform, router

    def test_sole_occupant_is_stashed_not_spawned(self):
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111))
        platform.system.run_until_idle()
        assert router.spawned == 0
        assert router.stashed_tells == 1
        assert self.CELL in router and len(router) == 1
        assert router.known_keys() == [self.CELL]

    def test_reshare_overwrites_stash_like_actor_state(self):
        platform, router = self.make_router()
        for t0 in (1_000.0, 2_000.0):
            router.share_forecast([self.CELL], stationary_forecast(111, t0=t0))
        assert router.spawned == 0 and router.stashed_tells == 2
        state = router.stashed_state(self.CELL)
        # Same shape an actor's export_state produces, holding the latest.
        assert state["forecasts"][111].anchor.t == 2_000.0
        assert state["last_pair_alert"] == {}

    def test_second_vessel_materialises_and_pairs(self):
        """The spawn-on-second-occupant path must replay the stashed
        forecast first (arrival order), so pairing still fires exactly as
        it would have without the stash."""
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111))
        router.share_forecast([self.CELL], stationary_forecast(222))
        platform.system.run_until_idle()
        assert router.spawned == 1
        assert router.stashed_state(self.CELL) is None
        actor = platform.system._cells[f"collision-{self.CELL}"].actor
        assert list(actor.forecasts) == [111, 222]  # replay preserved order
        platform.wiring.writer_ref.flush()
        platform.system.run_until_idle()
        assert platform.kvstore.llen("events:collision", now=1e9) == 1

    def test_prune_tick_expires_stale_stash(self):
        platform, router = self.make_router(event_debounce_s=900.0)
        router.share_forecast([self.CELL], stationary_forecast(111, t0=0.0))
        router.tell(self.CELL, PruneTick(now=100.0))   # fresh: kept
        assert self.CELL in router
        router.tell(self.CELL, PruneTick(now=901.0))   # stale: dropped
        platform.system.run_until_idle()
        assert self.CELL not in router and len(router) == 0
        assert router.spawned == 0  # housekeeping never materialises cells

    def test_restore_single_occupant_lands_in_stash(self):
        platform, router = self.make_router()
        state = {"forecasts": {111: stationary_forecast(111)},
                 "last_pair_alert": {}}
        router.tell(self.CELL, RestoreState(entity="collision",
                                            key=self.CELL, state=state))
        platform.system.run_until_idle()
        assert router.spawned == 0
        restored = router.stashed_state(self.CELL)
        assert list(restored["forecasts"]) == [111]

    def test_restore_multi_occupant_spawns_real_actor(self):
        platform, router = self.make_router()
        state = {"forecasts": {111: stationary_forecast(111),
                               222: stationary_forecast(222)},
                 "last_pair_alert": {}}
        router.tell(self.CELL, RestoreState(entity="collision",
                                            key=self.CELL, state=state))
        platform.system.run_until_idle()
        assert router.spawned == 1
        actor = platform.system._cells[f"collision-{self.CELL}"].actor
        assert set(actor.forecasts) == {111, 222}

    def test_live_stash_wins_over_restored_checkpoint(self):
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111, t0=5_000.0))
        router.tell(self.CELL, RestoreState(
            entity="collision", key=self.CELL,
            state={"forecasts": {111: stationary_forecast(111, t0=1_000.0)},
                   "last_pair_alert": {}}))
        platform.system.run_until_idle()
        assert router.spawned == 0
        assert router.stashed_state(self.CELL)["forecasts"][111].anchor.t \
            == 5_000.0

    def test_forget_drops_stash(self):
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111))
        assert router.forget(self.CELL) is True
        assert self.CELL not in router
        assert router.forget(self.CELL) is False
