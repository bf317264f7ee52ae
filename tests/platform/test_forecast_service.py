"""Tests of pooled fleet-wide inference and the collision-cell fast path.

Four invariants the batched hot path must preserve:

* **bitwise parity** — each row of a shipped forecaster's
  ``forecast_batch`` is identical, bit for bit, to that row batched alone
  and to the scalar ``forecast`` (mixed full and padded windows included);
* **failure isolation** — a row the forecaster raises on, or one off the
  globe, resolves to ``None`` without sinking the rest of its flush;
* **flush discipline** — batches execute exactly at ``forecast_batch_max``
  or at the linger deadline, stale timers re-arm for queued tails, and the
  in-flight marker survives a checkpoint taken mid-linger;
* **collision-cell table** — :class:`CollisionCellRouter` keeps a sole
  occupant as a bare forecast and a shared cell as an arrival-ordered
  member dict: re-shares overwrite, a second vessel pairs once, and
  prune/restore/checkpoint behave as the deleted cell actor did.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ais.message import AISMessage
from repro.geo.track import Position
from repro.ml import StandardScaler
from repro.models import LinearKinematicModel
from repro.models.base import RouteForecast, forecast_mark_times, stage_track
from repro.models.svrf import SVRFConfig, SVRFModel
from repro.platform import Platform, PlatformConfig
from repro.platform.cell_actor import CollisionCellRouter
from repro.platform.messages import RestoreState
from tests.forecasts import comparable, make_forecast

INPUT_STEPS = 6  #: Small S-VRF window: fast tests, same code paths.


def tiny_svrf(seed: int = 0) -> SVRFModel:
    """An S-VRF model that is 'trained' by construction: identity-ish
    scalers instead of a fit, so forecasts are deterministic functions of
    the (seeded) initial weights — all the inference paths run for real."""
    model = SVRFModel(SVRFConfig(hidden=6, dense=8, seed=seed, input_steps=INPUT_STEPS))
    model.x_scaler = StandardScaler.from_state({"mean": np.zeros(3), "std": np.ones(3)})
    out = model.config.output_steps * 2
    # Small y-std keeps the de-scaled transitions in a plausible range.
    model.y_scaler = StandardScaler.from_state({"mean": np.zeros(out), "std": np.full(out, 1e-3)})
    model.trained = True
    return model


def fixes(
    mmsi: int, n: int, t0: float = 0.0, lat0: float = 10.0, lon0: float = 20.0
) -> list[AISMessage]:
    """``n`` kept fixes (30 s apart) on a vessel-specific drifting track."""
    rng = np.random.default_rng(mmsi)
    msgs = []
    lat, lon = lat0, lon0
    for i in range(n):
        lat += 0.001 + rng.uniform(0, 0.0005)
        lon += 0.0005 + rng.uniform(0, 0.0005)
        msgs.append(AISMessage(mmsi=mmsi, t=t0 + 30.0 * i, lat=lat, lon=lon, sog=8.0, cog=45.0))
    return msgs


def vessel_actor(platform: Platform, mmsi: int):
    return platform.system._cells[f"vessel-{mmsi}"].actor


def drain(platform: Platform) -> None:
    """Ingest and run to idle WITHOUT the barrier flush of
    ``process_available`` — leaves pooled batches pending on purpose."""
    while platform.ingestion.poll_once():
        platform.system.run_until_idle()
    platform.system.run_until_idle()


def stationary_forecast(
    mmsi: int, t0: float = 1_000.0, lat: float = 10.0, lon: float = 20.0
) -> RouteForecast:
    return make_forecast(mmsi, [(t, lat, lon) for t in (t0, *forecast_mark_times(t0))])


_ROWS = st.lists(
    st.tuples(
        st.integers(2, INPUT_STEPS + 4),  # history length
        st.floats(-60.0, 60.0),  # start latitude
        st.floats(0.0, 30.0),  # SOG
        st.floats(0.0, 359.9),  # COG
    ),
    max_size=6,
)


class TestBitwiseParity:
    """Batching never changes a forecast, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["svrf", "kinematic"]), rows=_ROWS)
    def test_forecast_batch_matches_scalar_forecast(self, kind, rows):
        """Forecaster level, both shipped models: row ``i`` of one
        ``forecast_batch`` over n rows has the bits of that row batched
        alone and of the scalar ``forecast``. Every S-VRF batch mixes full
        and zero-padded windows."""
        model = tiny_svrf() if kind == "svrf" else LinearKinematicModel()
        rows = [(2, 10.0, 8.0, 45.0), (INPUT_STEPS + 1, 11.0, 8.0, 45.0), *rows]
        mmsis, histories = [], []
        for i, (n, lat0, sog, cog) in enumerate(rows):
            mmsis.append(200000000 + i)
            histories.append(
                [
                    Position(t=m.t, lat=m.lat, lon=m.lon, sog=sog, cog=cog)
                    for m in fixes(mmsis[-1], n, lat0=lat0)
                ]
            )
        pads = [len(h) < model.min_history for h in histories]
        windows = None
        if model.window_size:
            assert any(pads) and not all(pads)
            tracks = np.empty((len(histories), model.min_history, 3))
            for slot, h in zip(tracks, histories):
                stage_track(slot, np.array([(p.t, p.lat, p.lon) for p in h]))
            windows = model.make_windows(tracks)
        anchors = [h[-1] for h in histories]
        batched = model.forecast_batch(mmsis, windows, anchors)
        for i, mmsi in enumerate(mmsis):
            row = None if windows is None else windows[i : i + 1]
            alone = model.forecast_batch([mmsi], row, [anchors[i]])[0]
            if pads[i]:
                scalar = model.forecast(mmsi, histories[i], pad=True)
            else:
                scalar = model.forecast(mmsi, histories[i])
            assert comparable(batched[i]) == comparable(alone) == comparable(scalar)


def make_window(ts, lats, lons, steps: int, pad: bool = False) -> np.ndarray:
    """The per-vessel window builder the staged tracks replaced, kept as
    the oracle: the last ``steps`` displacements of parallel column arrays,
    the missing leading ones of a padded short history left at zero."""
    min_needed = 2 if pad else steps + 1
    if len(ts) < min_needed:
        raise ValueError(f"S-VRF needs {min_needed} fixes, got {len(ts)}")
    keep = min(len(ts), steps + 1)
    ts, lats, lons = ts[-keep:], lats[-keep:], lons[-keep:]
    window = np.zeros((steps, 3))
    window[steps - (keep - 1) :, 0] = lats[1:] - lats[:-1]
    window[steps - (keep - 1) :, 1] = lons[1:] - lons[:-1]
    window[steps - (keep - 1) :, 2] = ts[1:] - ts[:-1]
    return window


class Recording:
    """A forecaster that records every row the service hands it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.min_history = inner.min_history
        self.window_size = inner.window_size
        self.rows: list[tuple] = []

    def make_windows(self, tracks):
        return self.inner.make_windows(tracks)

    def forecast_batch(self, mmsis, windows, anchors):
        rows = windows if windows is not None else [None] * len(mmsis)
        self.rows.extend(zip(mmsis, rows, anchors))
        return self.inner.forecast_batch(mmsis, windows, anchors)


class TestStagedWindows:
    """The service stages each request's ring rows and builds every window
    of a flush in one ``make_windows`` call: each is, bit for bit, the old
    per-vessel ``make_window`` of that vessel's history at its fix."""

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(2, 3 * (INPUT_STEPS + 1) + 2), min_size=1, max_size=4),
        batch_max=st.integers(1, 8),
    )
    def test_windows_match_the_per_vessel_oracle(self, lengths, batch_max):
        """Histories of 2 to ``window_size + 1`` fixes, and rings that have
        wrapped (over ``2 * capacity`` appends compact the buffer)."""
        recording = Recording(tiny_svrf())
        platform = Platform(
            forecaster=recording,
            config=PlatformConfig(forecast_batch_max=batch_max, forecast_linger_s=1e9),
        )
        tracks = {300000000 + i: fixes(300000000 + i, n, t0=7.0 * i) for i, n in enumerate(lengths)}
        messages = sorted((m for track in tracks.values() for m in track), key=lambda m: m.t)
        platform.publish_messages(messages)
        platform.process_available()
        for mmsi, track in tracks.items():
            rows = [(w, a) for m, w, a in recording.rows if m == mmsi]
            assert len(rows) == len(track) - 1
            for k, (window, anchor) in enumerate(rows, start=2):
                seen = track[max(0, k - (INPUT_STEPS + 1)) : k]
                columns = (np.array(col) for col in zip(*((m.t, m.lat, m.lon) for m in seen)))
                oracle = make_window(*columns, INPUT_STEPS, pad=k < INPUT_STEPS + 1)
                assert window.tobytes() == oracle.tobytes()
                last = track[k - 1]
                assert anchor == Position(last.t, last.lat, last.lon, last.sog, last.cog)

    def test_the_anchor_reads_a_nan_sog_as_missing(self):
        recording = Recording(LinearKinematicModel())
        platform = Platform(forecaster=recording)
        message = replace(fixes(600000000, 1)[0], sog=float("nan"))
        platform.publish_messages([message])
        platform.process_available()
        # Dead reckoning raises on it: the batch, then its lone-row retry.
        assert [(mmsi, window) for mmsi, window, _ in recording.rows] == 2 * [(600000000, None)]
        anchor = recording.rows[0][2]
        assert anchor == Position(message.t, message.lat, message.lon, None, message.cog)
        assert all(type(v) is float for v in (anchor.t, anchor.lat, anchor.lon, anchor.cog))

    def test_the_scalar_forecast_still_refuses_a_short_unpadded_history(self):
        model = tiny_svrf()
        history = [Position(m.t, m.lat, m.lon) for m in fixes(1, INPUT_STEPS)]
        with pytest.raises(ValueError, match=f"needs {INPUT_STEPS + 1} fixes"):
            model.forecast(1, history)
        with pytest.raises(ValueError, match="needs 2 fixes"):
            model.forecast(1, history[:1], pad=True)
        columns = (np.array(col) for col in zip(*((p.t, p.lat, p.lon) for p in history)))
        window = make_window(*columns, INPUT_STEPS, pad=True)
        alone = model.forecast_batch([1], window[np.newaxis], [history[-1]])[0]
        assert comparable(model.forecast(1, history, pad=True)) == comparable(alone)


class OffTheGlobe(LinearKinematicModel):
    """Dead reckoning, except vessel 111's last mark lands at latitude
    90.5: the kind of row an unclamped S-VRF transition sum can produce."""

    def forecast_batch(self, mmsis, windows, anchors):
        out = super().forecast_batch(mmsis, windows, anchors)
        for i, forecast in enumerate(out):
            if forecast.mmsi == 111:
                lats = forecast.lats.copy()
                lats[-1] = 90.5
                out[i] = replace(forecast, lats=lats)
        return out


class TestFailureIsolation:
    """One bad request resolves to ``None`` and fails alone: the rest of
    its flush is forecast and shared, and every vessel gets its state row."""

    def run(self, forecaster, messages, **config) -> Platform:
        platform = Platform(forecaster=forecaster, config=PlatformConfig(**config))
        platform.publish_messages(messages)
        platform.process_available()
        return platform

    def assert_only_failed(self, platform: Platform, failed: int, mmsis) -> None:
        assert platform.wiring.forecast_service.forecasts_failed == 1
        for mmsi in mmsis:
            actor = vessel_actor(platform, mmsi)
            assert actor.kept_fixes == 1 and not actor.pending_forecast
            assert (actor.latest_forecast is None) == (mmsi == failed)
            assert platform.api.vessel_state(mmsi) is not None

    def test_a_request_the_forecaster_rejects(self):
        """A fix with a NaN SOG makes dead reckoning raise for that row."""
        mmsis = [111, 222, 333, 444]
        messages = [
            AISMessage(mmsi=mmsi, t=0.0, lat=10.0 + i, lon=20.0, sog=8.0, cog=45.0)
            for i, mmsi in enumerate(mmsis)
        ]
        messages[2] = replace(messages[2], sog=float("nan"))
        platform = self.run(LinearKinematicModel(), messages)
        self.assert_only_failed(platform, 333, mmsis)

    @pytest.mark.parametrize("batch_max", [4, 100])
    def test_a_forecast_off_the_globe(self, batch_max):
        """At 4 the capacity flush runs inside the last vessel's receive,
        at 100 in the barrier flush of ``process_available``; either way
        the off-globe row must not reach the cell kernel."""
        mmsis = [111, 222, 333, 444]
        messages = [
            AISMessage(mmsi=mmsi, t=0.0, lat=10.0 + i, lon=20.0, sog=8.0, cog=45.0)
            for i, mmsi in enumerate(mmsis)
        ]
        platform = self.run(OffTheGlobe(), messages, forecast_batch_max=batch_max)
        self.assert_only_failed(platform, 111, mmsis)


class TestFlushDiscipline:
    def make_platform(self, **overrides) -> Platform:
        defaults = dict(forecast_batch_max=100, forecast_linger_s=2.0)
        defaults.update(overrides)
        return Platform(forecaster=LinearKinematicModel(), config=PlatformConfig(**defaults))

    def test_exact_max_batch_flushes_without_timer(self):
        platform = self.make_platform(forecast_batch_max=4, forecast_linger_s=1e9)
        platform.publish_messages([fixes(400000000 + i, 1)[0] for i in range(4)])
        drain(platform)
        service = platform.wiring.forecast_service
        assert service.batches_executed == 1
        assert service.pending_count == 0
        for i in range(4):
            assert vessel_actor(platform, 400000000 + i).latest_forecast is not None

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
        platform = self.make_platform(forecast_batch_max=2, forecast_linger_s=5.0)
        platform.publish_messages([fixes(400000000 + i, 1)[0] for i in range(3)])
        drain(platform)
        service = platform.wiring.forecast_service
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

    def test_flush_telemetry_histograms(self):
        from repro.telemetry import Telemetry

        platform = self.make_platform(forecast_batch_max=3, forecast_linger_s=1e9)
        platform.system.telemetry = Telemetry("test")
        platform.publish_messages([fixes(400000000 + i, 1)[0] for i in range(3)])
        drain(platform)
        registry = platform.system.telemetry.registry
        batch_hist = registry.histogram("forecast_batch_size")
        assert batch_hist.count == 1 and batch_hist.max == 3
        assert registry.histogram("forecast_latency_s").count == 1
        assert registry.counter("forecast_flushes_total", {"reason": "max_batch"}).value == 1


class TestPendingForecastCheckpoint:
    def make_platform(self) -> Platform:
        return Platform(
            forecaster=LinearKinematicModel(),
            config=PlatformConfig(forecast_batch_max=100, forecast_linger_s=1e9),
        )

    def test_marker_exported_and_reissued_on_restore(self):
        source = self.make_platform()
        source.publish_messages(fixes(500000000, 1))
        drain(source)
        state = vessel_actor(source, 500000000).export_state()
        assert state["pending_forecast"] is True

        target = self.make_platform()
        target.wiring.vessel_router.tell(
            500000000, RestoreState(entity="vessel", key=500000000, state=state)
        )
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
    """The node's collision-cell table: a sole occupant is a bare forecast,
    a second MMSI turns the cell into an arrival-ordered member dict, and
    prune, restore and checkpoint go through the table."""

    CELL = 0x8A2A1072B59FFFF  #: any H3-ish uint64 works as a router key

    def make_router(self, **overrides):
        platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig(**overrides))
        router = platform.wiring.collision_router
        assert isinstance(router, CollisionCellRouter)
        assert router is platform.wiring.collision_cells
        return platform, router

    def restore(self, router, state: dict) -> None:
        router.tell(self.CELL, RestoreState(entity="collision", key=self.CELL, state=state))

    def test_sole_occupant_is_stashed_not_spawned(self):
        platform, router = self.make_router()
        forecast = stationary_forecast(111)
        router.share_forecast([self.CELL], forecast)
        assert platform.system.run_until_idle() == 0  # no envelope, no actor
        assert router.cells[self.CELL] is forecast
        assert router.pair_tests == 0
        assert self.CELL in router and len(router) == 1
        assert router.known_keys() == [self.CELL]

    def test_reshare_overwrites_stash_like_actor_state(self):
        platform, router = self.make_router()
        for t0 in (1_000.0, 2_000.0):
            router.share_forecast([self.CELL], stationary_forecast(111, t0=t0))
        assert router.pair_tests == 0
        state = router.cell_state(self.CELL)
        assert list(state) == ["forecasts"]
        assert state["forecasts"][111].anchor.t == 2_000.0

    def test_second_vessel_materialises_and_pairs(self):
        """A second MMSI turns the cell into a member table in arrival
        order and is tested once against the first."""
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111))
        router.share_forecast([self.CELL], stationary_forecast(222))
        assert list(router.cells[self.CELL]) == [111, 222]
        assert list(router.cell_state(self.CELL)["forecasts"]) == [111, 222]
        assert router.pair_tests == 1
        platform.system.run_until_idle()
        platform.wiring.writer_ref.flush()
        platform.system.run_until_idle()
        assert platform.kvstore.llen("events:collision") == 1

    def test_prune_tick_expires_stale_stash(self):
        platform, router = self.make_router(event_debounce_s=900.0)
        router.share_forecast([self.CELL], stationary_forecast(111, t0=0.0))
        router.prune(100.0)  # fresh: kept
        assert self.CELL in router
        router.prune(901.0)  # stale: dropped
        assert self.CELL not in router and len(router) == 0

    def test_prune_leaves_a_sole_survivor_bare(self):
        platform, router = self.make_router(event_debounce_s=900.0)
        router.share_forecast([self.CELL], stationary_forecast(111, t0=0.0))
        survivor = stationary_forecast(222, t0=500.0)
        router.share_forecast([self.CELL], survivor)
        router.prune(1_000.0)
        assert router.cells[self.CELL] is survivor

    def test_housekeeping_prunes_the_table(self):
        platform, router = self.make_router(event_debounce_s=900.0)
        router.share_forecast([self.CELL], stationary_forecast(111, t0=0.0))
        platform.system.advance_time(1_000.0)
        platform.housekeeping()
        assert len(router) == 0 and platform.collision_cell_count == 0

    def test_restore_single_occupant_lands_in_stash(self):
        platform, router = self.make_router()
        self.restore(router, {"forecasts": {111: stationary_forecast(111)}})
        assert list(router.cell_state(self.CELL)["forecasts"]) == [111]
        assert isinstance(router.cells[self.CELL], RouteForecast)

    def test_restore_multi_occupant_into_table(self):
        platform, router = self.make_router()
        state = {"forecasts": {111: stationary_forecast(111), 222: stationary_forecast(222)}}
        self.restore(router, state)
        assert router.cell_state(self.CELL) == state
        router.share_forecast([self.CELL], stationary_forecast(333))
        assert router.pair_tests == 2

    def test_live_stash_wins_over_restored_checkpoint(self):
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111, t0=5_000.0))
        self.restore(router, {"forecasts": {111: stationary_forecast(111, t0=1_000.0)}})
        assert router.cell_state(self.CELL)["forecasts"][111].anchor.t == 5_000.0

    def test_restore_adopts_only_into_an_absent_cell(self):
        """The deleted cell actor's rule: a cell holding anything was
        rebuilt from replayed forecasts and keeps them; an absent (or
        pruned-away) cell adopts the checkpoint."""
        platform, router = self.make_router(event_debounce_s=900.0)
        live = {"forecasts": {111: stationary_forecast(111), 222: stationary_forecast(222)}}
        self.restore(router, live)
        self.restore(router, {"forecasts": {333: stationary_forecast(333)}})
        assert router.cell_state(self.CELL) == live
        router.prune(1e9)
        checkpoint = {"forecasts": {444: stationary_forecast(444)}}
        self.restore(router, checkpoint)
        assert router.cell_state(self.CELL) == checkpoint

    def test_multi_occupant_checkpoint_round_trip(self):
        """A pickled multi-occupant cell restores into a fresh node with
        its members in order, carries no densified track, and the
        restored cell pairs a newcomer exactly as the original does."""
        source_platform, source = self.make_router()
        for mmsi, lat in ((111, 10.0), (222, 10.001), (333, 10.002)):
            source.share_forecast([self.CELL], stationary_forecast(mmsi, lat=lat))
        state = source.cell_state(self.CELL)
        assert list(state) == ["forecasts"]
        assert all(type(fc) is RouteForecast for fc in state["forecasts"].values())
        target_platform, target = self.make_router()
        self.restore(target, pickle.loads(pickle.dumps(state)))
        assert comparable(target.cell_state(self.CELL)) == comparable(state)
        newcomer = stationary_forecast(444, lat=10.0015)
        for platform, router in ((source_platform, source), (target_platform, target)):
            router.share_forecast([self.CELL], newcomer)
            platform.system.run_until_idle()
            platform.wiring.writer_ref.flush()
            platform.system.run_until_idle()
        source_hits, target_hits = (
            {e for e in platform.kvstore.lrange("events:collision", 0, -1) if 444 in e.pair}
            for platform in (source_platform, target_platform)
        )
        assert len(source_hits) == 3 and source_hits == target_hits

    def test_forget_drops_stash(self):
        platform, router = self.make_router()
        router.share_forecast([self.CELL], stationary_forecast(111))
        assert router.forget(self.CELL) is True
        assert self.CELL not in router
        assert router.forget(self.CELL) is False
