"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation isolates one design decision of the paper's system and
measures its effect on the relevant metric:

* **BiLSTM vs plain LSTM** — the architecture change of Section 4.2,
* **L1 in-layer regularisation on/off** — the overfitting control,
* **input window length** — the fixed 20-displacement tensor vs shorter,
* **downsampling rate** — the 30-second minimum aggregation rate,
* **indirect vs direct VTFF** — the strategy comparison from [17]
  ("the indirect paradigm ... often exceeding 1.5 times the accuracy"),
* **collision-cell neighbour fan-out** — the n+1-ring sharing of
  Section 5.2.
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.ais.datasets import table1_dataset, table1_stream
from repro.ais.preprocessing import build_segments, train_val_test_split
from repro.evaluation.metrics import ade_per_horizon, displacement_errors_m
from repro.models import SVRFConfig, SVRFModel


def _ade(model, test):
    true_lat, true_lon = test.target_positions()
    lat, lon = model.predict_positions(test.anchor, test.x)
    return float(ade_per_horizon(
        displacement_errors_m(lat, lon, true_lat, true_lon)).mean())


def _train_eval(config: SVRFConfig, epochs: int = 10):
    train, val, test = table1_dataset(n_vessels=150, duration_s=8 * 3600.0,
                                      seed=7)
    model = SVRFModel(config)
    model.fit(train, val, epochs=epochs, batch_size=256, lr=3e-3)
    return _ade(model, test)


class TestArchitectureAblations:
    def test_bilstm_vs_lstm(self, benchmark):
        def run():
            bi = _train_eval(SVRFConfig(hidden=32, dense=48,
                                        bidirectional=True))
            uni = _train_eval(SVRFConfig(hidden=32, dense=48,
                                         bidirectional=False))
            return bi, uni

        bi, uni = benchmark.pedantic(run, rounds=1, iterations=1)
        write_result("ablation_bilstm",
                     f"Ablation BiLSTM vs LSTM (mean ADE, m)\n"
                     f"  BiLSTM: {bi:8.1f}\n  LSTM:   {uni:8.1f}")
        # The paper switched to BiLSTM; it must at least be competitive.
        assert bi < uni * 1.15

    def test_l1_regularization(self, benchmark):
        def run():
            with_l1 = _train_eval(SVRFConfig(hidden=32, dense=48,
                                             l1_lambda=1e-6))
            without = _train_eval(SVRFConfig(hidden=32, dense=48,
                                             l1_lambda=0.0))
            return with_l1, without

        with_l1, without = benchmark.pedantic(run, rounds=1, iterations=1)
        write_result("ablation_l1",
                     f"Ablation L1 regularisation (mean ADE, m)\n"
                     f"  with L1 (1e-6): {with_l1:8.1f}\n"
                     f"  without:        {without:8.1f}")
        # A light L1 must not cost accuracy (it exists to curb overfitting).
        assert with_l1 < without * 1.15


class TestDataPipelineAblations:
    def test_input_window_length(self, benchmark):
        """Shorter input windows degrade (or at best match) the fixed
        20-step window the integrated model uses."""
        def run():
            batch = table1_stream(n_vessels=120, duration_s=8 * 3600.0,
                                  seed=7)
            out = {}
            for steps in (5, 20):
                segs = build_segments(batch, input_steps=steps)
                train, val, test = train_val_test_split(segs, seed=7)
                model = SVRFModel(SVRFConfig(hidden=32, dense=48,
                                             input_steps=steps))
                model.fit(train, val, epochs=10, batch_size=256, lr=3e-3)
                out[steps] = _ade(model, test)
            return out

        out = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = [f"Ablation input window (mean ADE, m)"] + [
            f"  {steps:>2} displacements: {ade:8.1f}"
            for steps, ade in sorted(out.items())]
        write_result("ablation_input_window", "\n".join(lines))
        assert out[20] < out[5] * 1.25

    def test_downsampling_rate(self, benchmark):
        """The 30-second rate balances tensor span against detail; coarse
        aggregation (120 s) must not dramatically beat it (it loses the
        manoeuvre detail the model exploits)."""
        def run():
            batch = table1_stream(n_vessels=120, duration_s=8 * 3600.0,
                                  seed=7)
            out = {}
            for rate in (30.0, 60.0, 120.0):
                segs = build_segments(batch, min_interval_s=rate)
                train, val, test = train_val_test_split(segs, seed=7)
                if len(train) < 500:
                    continue
                model = SVRFModel(SVRFConfig(hidden=32, dense=48))
                model.fit(train, val, epochs=10, batch_size=256, lr=3e-3)
                out[rate] = _ade(model, test)
            return out

        out = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = ["Ablation downsampling rate (mean ADE, m)"] + [
            f"  {rate:5.0f} s: {ade:8.1f}" for rate, ade in sorted(out.items())]
        write_result("ablation_downsampling", "\n".join(lines))
        assert 30.0 in out
        assert out[30.0] < min(out.values()) * 1.3


class TestVTFFAblation:
    def test_indirect_vs_direct(self, benchmark, svrf_model):
        """[17]: the indirect (forecast-rasterising) VTFF strategy beats the
        direct flow-sequence baseline, often by >= 1.5x."""
        from collections import defaultdict

        from repro.ais.datasets import proximity_scenario
        from repro.ais.preprocessing import downsample_arrays
        from repro.events.vtff import DirectVTFF, FlowGrid, IndirectVTFF
        from repro.geo.track import Position

        def run():
            scen = proximity_scenario(seed=31)
            horizon_windows = 6
            window_s = 300.0
            cutoff = scen.duration_s * 0.6

            # Ground-truth flow from dense truth over the whole run.
            truth_grid = FlowGrid(window_s=window_s)
            for mmsi, track in scen.result.truth.items():
                for p in track[::3]:
                    truth_grid.add(mmsi, p.t, p.lat, p.lon)
            cutoff_w = truth_grid.window_of(cutoff)
            eval_windows = list(range(cutoff_w + 1,
                                      cutoff_w + 1 + horizon_windows))

            # Indirect: forecast each vessel from its history at the cutoff.
            indirect = IndirectVTFF(window_s=window_s)
            by_vessel = defaultdict(list)
            for m in scen.result.messages:
                if m.t <= cutoff:
                    by_vessel[m.mmsi].append(m)
            for mmsi, msgs in by_vessel.items():
                t = np.array([m.t for m in msgs])
                keep = downsample_arrays(t, 30.0)
                fixes = [Position(t=msgs[i].t, lat=msgs[i].lat,
                                  lon=msgs[i].lon, sog=msgs[i].sog,
                                  cog=msgs[i].cog) for i in keep]
                if len(fixes) >= svrf_model.min_history:
                    indirect.submit(svrf_model.forecast(mmsi, fixes))

            # Direct: per-cell AR over the pre-cutoff flow history.
            history_windows = list(range(0, cutoff_w + 1))
            cells = truth_grid.active_cells()
            direct = DirectVTFF(order=6).fit(
                {c: truth_grid.series(c, history_windows) for c in cells})

            ind_err, dir_err, n = 0.0, 0.0, 0
            for c in cells:
                actual = truth_grid.series(c, eval_windows)
                ind_pred = np.array([indirect.grid.count(c, w)
                                     for w in eval_windows], dtype=float)
                dir_pred = direct.predict(c, steps=horizon_windows)
                ind_err += float(np.abs(ind_pred - actual).sum())
                dir_err += float(np.abs(dir_pred - actual).sum())
                n += horizon_windows
            return ind_err / n, dir_err / n

        ind_mae, dir_mae = benchmark.pedantic(run, rounds=1, iterations=1)
        write_result("ablation_vtff",
                     f"Ablation VTFF strategy (MAE, vessels per cell-window)\n"
                     f"  indirect (S-VRF raster): {ind_mae:6.3f}\n"
                     f"  direct (per-cell AR):    {dir_mae:6.3f}\n"
                     f"  ratio direct/indirect:   {dir_mae / ind_mae:6.2f}")
        # The indirect strategy must win ([17] reports >= 1.5x; exact factor
        # depends on traffic volatility).
        assert ind_mae < dir_mae


class TestCollisionFanOutAblation:
    def test_neighbor_rings(self, benchmark, svrf_model, eval_scenario):
        """Without the n+1-ring fan-out, encounters whose forecasts fall
        into adjacent cells are missed; one ring recovers them. A pair is
        tested only when its dilated cells meet, as in a collision cell."""
        from repro.evaluation.table2 import _forecast_pair, assign_event_leads
        from repro.events.collision import trajectories_intersect
        from repro.hexgrid import grid_disk, latlng_to_cell
        from repro.platform.vessel_actor import COLLISION_RESOLUTION

        def cells(forecast, rings):
            return {cell for lat, lon in zip(forecast.lats, forecast.lons)
                    for cell in grid_disk(latlng_to_cell(
                        lat, lon, COLLISION_RESOLUTION), rings)}

        def run():
            events = eval_scenario.events
            leads = assign_event_leads(events, seed=17)
            found = {}
            for rings in (0, 1):
                hits = 0
                for ev in events:
                    cutoff = ev.t_closest - leads[ev]
                    pair = _forecast_pair(eval_scenario, svrf_model,
                                          ev.mmsi_a, ev.mmsi_b, cutoff)
                    if pair is None or not cells(pair[0], rings) & cells(pair[1], rings):
                        continue
                    if trajectories_intersect(pair[1], pair[0]) is not None:
                        hits += 1
                found[rings] = hits
            return found

        found = benchmark.pedantic(run, rounds=1, iterations=1)
        write_result("ablation_fanout",
                     f"Ablation collision-cell fan-out (events found)\n"
                     f"  0 rings: {found[0]}\n  1 ring:  {found[1]}")
        assert found[1] >= found[0]
