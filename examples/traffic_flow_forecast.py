"""Vessel Traffic Flow Forecasting (VTFF) — the Figure 4d heat map.

Feeds a busy synthetic scenario through the platform, then renders the
forecast traffic flow per H3 cell and time window as an ASCII heat map
(dark green / light green / red in the UI; ``.``/``+``/``#`` here), and
compares the indirect strategy's forecast against what actually happened.

Run:  python examples/traffic_flow_forecast.py
"""

import numpy as np

from repro.ais.datasets import proximity_scenario
from repro.events.vtff import FlowGrid, TrafficLevel
from repro.hexgrid import cell_to_latlng
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig

_GLYPH = {TrafficLevel.LOW: ".", TrafficLevel.MEDIUM: "+", TrafficLevel.HIGH: "#"}


def main() -> None:
    scenario = proximity_scenario(
        n_event_pairs=20, n_near_miss_pairs=8, n_background=20, duration_s=5_400.0, seed=9
    )
    print(f"{scenario.n_vessels} vessels over {scenario.duration_s / 3600:.1f} h in the Aegean")

    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    platform.publish_messages(scenario.result.messages)
    platform.process_available()

    vtff = platform.flow_snapshot()
    windows = vtff.grid.windows()
    window = windows[len(windows) // 2]
    flow = vtff.predicted_flow(window)
    print(f"\nForecast traffic flow, window {window} ({len(flow)} active cells):")

    # Render active cells on a coarse lat/lon character grid.
    coords = {cell: cell_to_latlng(cell) for cell in flow}
    lats = [c[0] for c in coords.values()]
    lons = [c[1] for c in coords.values()]
    rows, cols = 14, 48
    canvas = [[" "] * cols for _ in range(rows)]
    lat_span = max(max(lats) - min(lats), 1e-6)
    lon_span = max(max(lons) - min(lons), 1e-6)
    for cell, count in flow.items():
        lat, lon = coords[cell]
        r = int((max(lats) - lat) / lat_span * (rows - 1))
        c = int((lon - min(lons)) / lon_span * (cols - 1))
        canvas[r][c] = _GLYPH[FlowGrid.classify(count)]
    print("   " + "-" * cols)
    for row in canvas:
        print("  |" + "".join(row) + "|")
    print("   " + "-" * cols)
    print("   legend: . low traffic   + medium   # high")

    # Forecast vs reality for the busiest forecast cells.
    truth_grid = FlowGrid(window_s=vtff.window_s)
    for mmsi, track in scenario.result.truth.items():
        for p in track[::3]:
            truth_grid.add(mmsi, p.t, p.lat, p.lon)

    print(f"\n{'cell center':>22} {'forecast':>9} {'actual':>7}")
    busiest = sorted(flow.items(), key=lambda kv: -kv[1])[:8]
    errs = []
    for cell, predicted in busiest:
        lat, lon = coords[cell]
        actual = truth_grid.count(cell, window)
        errs.append(abs(predicted - actual))
        print(f"  ({lat:7.3f}, {lon:7.3f})  {predicted:>8} {actual:>7}")
    print(f"\nmean absolute error on these cells: {np.mean(errs):.2f} vessels per cell-window")


if __name__ == "__main__":
    main()
