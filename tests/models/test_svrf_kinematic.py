"""Tests for the short-term forecasters (S-VRF and the kinematic baseline)."""

import numpy as np
import pytest

from repro.ais.datasets import table1_dataset
from repro.ais.preprocessing import (
    INPUT_STEPS,
    OUTPUT_INTERVAL_S,
    OUTPUT_STEPS,
    SegmentDataset,
)
from repro.geo import Position, haversine_m
from repro.evaluation.metrics import ade_per_horizon, displacement_errors_m
from repro.geo.constants import KNOTS_TO_MPS
from repro.models import LinearKinematicModel, SVRFConfig, SVRFModel, train_svrf


def _constant_velocity_dataset(n=400, dlat=1e-4, dlon=5e-5, dt=60.0, seed=0):
    """Segments from constant-velocity motion: targets are exactly linear."""
    rng = np.random.default_rng(seed)
    lat0 = 35.0 + rng.uniform(0, 5, size=n)
    lon0 = 20.0 + rng.uniform(0, 5, size=n)
    x = np.zeros((n, INPUT_STEPS, 3))
    x[:, :, 0] = dlat
    x[:, :, 1] = dlon
    x[:, :, 2] = dt
    steps_per_mark = OUTPUT_INTERVAL_S / dt
    y = np.zeros((n, OUTPUT_STEPS, 2))
    y[:, :, 0] = dlat * steps_per_mark
    y[:, :, 1] = dlon * steps_per_mark
    anchor = np.stack([np.zeros(n), lat0, lon0, np.full(n, 10.0), np.full(n, 26.0)], axis=1)
    return SegmentDataset(x=x, y=y, anchor=anchor, mmsi=np.arange(n, dtype=np.int64))


def _history(n_fixes=INPUT_STEPS + 1, dt=60.0, speed_kn=12.0, cog=90.0):
    """A straight eastbound track at ``speed_kn``."""
    dist_per_fix = speed_kn * KNOTS_TO_MPS * dt
    dlon = dist_per_fix / (111_194.9266 * np.cos(np.radians(38.0)))
    return [
        Position(t=i * dt, lat=38.0, lon=23.0 + i * dlon, sog=speed_kn, cog=cog)
        for i in range(n_fixes)
    ]


class TestLinearKinematic:
    def test_forecast_shape(self):
        fc = LinearKinematicModel().forecast(1, _history())
        assert fc.ts.shape == fc.lats.shape == fc.lons.shape == (OUTPUT_STEPS + 1,)
        assert fc.mmsi == 1
        assert fc.horizon_s() == pytest.approx(1800.0)

    def test_forecast_follows_course(self):
        fc = LinearKinematicModel().forecast(1, _history(cog=90.0))
        # Eastbound: latitude roughly constant, longitude increasing.
        assert all(abs(fc.lats[1:] - 38.0) < 0.01)
        assert all(np.diff(fc.lons) > 0)

    def test_forecast_distance_matches_speed(self):
        fc = LinearKinematicModel().forecast(1, _history(speed_kn=10.0))
        d = haversine_m(fc.anchor.lat, fc.anchor.lon, fc.lats[-1], fc.lons[-1])
        assert d == pytest.approx(10.0 * KNOTS_TO_MPS * 1800.0, rel=1e-6)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            LinearKinematicModel().forecast(1, [])

    def test_missing_sog_rejected(self):
        with pytest.raises(ValueError):
            LinearKinematicModel().forecast(1, [Position(t=0.0, lat=0.0, lon=0.0)])

    def test_batch_prediction_matches_single(self):
        history = _history()
        fc = LinearKinematicModel().forecast(1, history)
        last = history[-1]
        anchor = np.array([[last.t, last.lat, last.lon, last.sog, last.cog]])
        lat, lon = LinearKinematicModel().predict_positions(anchor, np.zeros((1, INPUT_STEPS, 3)))
        assert lat[0, -1] == pytest.approx(fc.lats[-1], abs=1e-9)
        assert lon[0, -1] == pytest.approx(fc.lons[-1], abs=1e-9)

    def test_exact_on_constant_velocity_targets(self):
        ds = _constant_velocity_dataset()
        # The anchor sog/cog here are arbitrary; use displacement-derived
        # values instead for a fair check of the dead-reckoning math.
        model = LinearKinematicModel()
        lat, lon = model.predict_positions(ds.anchor, ds.x)
        assert lat.shape == (len(ds), OUTPUT_STEPS)


class TestSVRF:
    def test_untrained_predict_rejected(self):
        with pytest.raises(RuntimeError):
            SVRFModel().predict_transitions(np.zeros((1, INPUT_STEPS, 3)))

    def test_fit_on_empty_rejected(self):
        empty = SegmentDataset.concat([])
        with pytest.raises(ValueError):
            SVRFModel().fit(empty)

    def test_learns_constant_velocity(self):
        ds = _constant_velocity_dataset()
        model = SVRFModel(SVRFConfig(hidden=8, dense=16))
        model.fit(ds, epochs=30, batch_size=64, lr=5e-3)
        pred = model.predict_transitions(ds.x[:10])
        np.testing.assert_allclose(pred, ds.y[:10], atol=2e-5)

    def test_predict_positions_cumulative(self):
        ds = _constant_velocity_dataset(n=400)
        model = SVRFModel(SVRFConfig(hidden=8, dense=16))
        model.fit(ds, epochs=30, batch_size=64, lr=5e-3)
        lat, lon = model.predict_positions(ds.anchor[:5], ds.x[:5])
        tlat, tlon = ds.subset(np.arange(5)).target_positions()
        err = haversine_m(lat, lon, tlat, tlon)
        assert float(err.mean()) < 50.0

    def test_input_shape_validated(self):
        ds = _constant_velocity_dataset(n=50)
        model = SVRFModel(SVRFConfig(hidden=8, dense=16))
        model.fit(ds, epochs=1)
        with pytest.raises(ValueError):
            model.predict_transitions(np.zeros((1, 5, 3)))

    def test_forecast_interface(self):
        ds = _constant_velocity_dataset(n=100)
        model = SVRFModel(SVRFConfig(hidden=8, dense=16))
        model.fit(ds, epochs=5)
        fc = model.forecast(42, _history())
        assert fc.mmsi == 42
        assert len(fc.ts) == OUTPUT_STEPS + 1
        assert fc.ts[1] - fc.ts[0] == OUTPUT_INTERVAL_S

    def test_forecast_history_too_short(self):
        ds = _constant_velocity_dataset(n=50)
        model = SVRFModel(SVRFConfig(hidden=8, dense=16))
        model.fit(ds, epochs=1)
        with pytest.raises(ValueError):
            model.forecast(1, _history(n_fixes=INPUT_STEPS))  # one short

    def test_min_history(self):
        assert SVRFModel().min_history == INPUT_STEPS + 1

    def test_save_load_roundtrip(self, tmp_path):
        ds = _constant_velocity_dataset(n=80)
        model = SVRFModel(SVRFConfig(hidden=8, dense=16, seed=5))
        model.fit(ds, epochs=3)
        path = tmp_path / "svrf.npz"
        model.save(path)
        clone = SVRFModel.load(path)
        assert clone.config == model.config
        np.testing.assert_allclose(
            clone.predict_transitions(ds.x[:4]), model.predict_transitions(ds.x[:4])
        )

    def test_save_untrained_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            SVRFModel().save(tmp_path / "x.npz")

    def test_train_svrf_caches(self, tmp_path):
        ds = _constant_velocity_dataset(n=80)
        path = tmp_path / "cached.npz"
        m1 = train_svrf(ds, ds, SVRFConfig(hidden=8, dense=16), epochs=2, cache_path=path)
        assert path.exists()
        m2 = train_svrf(ds, ds, SVRFConfig(hidden=8, dense=16), epochs=2, cache_path=path)
        np.testing.assert_allclose(
            m1.predict_transitions(ds.x[:3]), m2.predict_transitions(ds.x[:3])
        )

    def test_architecture_matches_figure3(self):
        """Input 20 displacements -> BiLSTM -> FC -> 6x(dlat,dlon) output."""
        from repro.ml import Bidirectional, Dense

        model = SVRFModel()
        layers = model.network.layers
        assert isinstance(layers[0], Bidirectional)
        assert isinstance(layers[1], Dense)
        assert isinstance(layers[2], Dense)
        assert layers[2].params["W"].shape[1] == OUTPUT_STEPS * 2
        assert model.config.input_steps == 20
        assert model.config.output_steps == 6

    def test_l1_regularizer_attached_to_bilstm(self):
        from repro.ml import L1Regularizer

        model = SVRFModel()
        assert 0 in model.network.regularizers
        assert isinstance(model.network.regularizers[0], L1Regularizer)


class TestFloat32Serving:
    """S-VRF serves in float32 (Keras's default); training, the scalers and
    the marks' running sum stay float64. A small Table 1 model, trained for
    a few seconds, against the float64 pass through the same layers."""

    @pytest.fixture(scope="class")
    def trained(self):
        train, val, test = table1_dataset(n_vessels=80, duration_s=4 * 3600.0, seed=5, cache=False)
        model = SVRFModel(SVRFConfig(hidden=32, dense=48))
        model.fit(train, val, epochs=6, lr=3e-3)
        return model, test

    @staticmethod
    def _float64_positions(model, test):
        z = model.network.predict(model.x_scaler.transform(test.x))
        transitions = model.y_scaler.inverse_transform(z).reshape(len(test), -1, 2)
        lat = test.anchor[:, 1:2] + np.cumsum(transitions[:, :, 0], axis=1)
        lon = test.anchor[:, 2:3] + np.cumsum(transitions[:, :, 1], axis=1)
        return lat, lon

    def test_ade_per_horizon_within_a_decimetre_of_float64(self, trained):
        model, test = trained
        lat, lon = model.predict_positions(test.anchor, test.x)
        ref_lat, ref_lon = self._float64_positions(model, test)
        true_lat, true_lon = test.target_positions()
        served = ade_per_horizon(displacement_errors_m(lat, lon, true_lat, true_lon))
        ref = ade_per_horizon(displacement_errors_m(ref_lat, ref_lon, true_lat, true_lon))
        assert np.abs(served - ref).max() < 0.1
        # A trained model, not noise: the float64 ADE grows with horizon.
        assert all(b > a for a, b in zip(ref, ref[1:]))

    def test_no_mark_moves_a_metre(self, trained):
        model, test = trained
        lat, lon = model.predict_positions(test.anchor, test.x)
        assert lat.dtype == lon.dtype == np.float64
        ref_lat, ref_lon = self._float64_positions(model, test)
        assert displacement_errors_m(lat, lon, ref_lat, ref_lon).max() < 1.0

    def test_forecast_batch_marks_stay_float64(self, trained):
        model, test = trained
        anchors = [Position(t=a[0], lat=a[1], lon=a[2]) for a in test.anchor[:8]]
        fcs = model.forecast_batch(list(range(8)), test.x[:8], anchors)
        for fc in fcs:
            assert fc.lats.dtype == fc.lons.dtype == np.float64
            assert fc.lats[0] == fc.anchor.lat
        # The scalar path is the same float32 pass: bitwise its fleet row.
        single = model.forecast_batch([3], test.x[3:4], anchors[3:4])[0]
        assert single.lats.tobytes() == fcs[3].lats.tobytes()
        assert single.lons.tobytes() == fcs[3].lons.tobytes()
