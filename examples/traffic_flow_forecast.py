"""Vessel Traffic Flow Forecasting (VTFF) — the Figure 4d heat map.

Feeds a busy synthetic scenario through the platform up to one forecast
horizon before its end, then renders the forecast traffic flow per H3 cell
and time window as an ASCII heat map (dark green / light green / red in the
UI; ``.``/``+``/``#`` here), and compares the indirect strategy's forecast
against what actually happened in the latest forecast window that ends by
the truth's last fix (exit status 1 if there is none).

Run:  python examples/traffic_flow_forecast.py
"""

import sys

import numpy as np

from repro.ais.datasets import proximity_scenario
from repro.ais.preprocessing import OUTPUT_INTERVAL_S, OUTPUT_STEPS
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

    # Stream up to one forecast horizon before the truth ends: the snapshot
    # keeps each vessel's latest forecast, so its marks then fall where the
    # truth can score them.
    truth_end_t = max(track[-1].t for track in scenario.result.truth.values())
    cutoff_t = truth_end_t - OUTPUT_STEPS * OUTPUT_INTERVAL_S
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    platform.publish_messages([m for m in scenario.result.messages if m.t <= cutoff_t])
    platform.process_available()
    print(f"streamed to t = {cutoff_t:.0f} s of {truth_end_t:.0f} s")

    vtff = platform.flow_snapshot()
    # Score the latest forecast window the truth covers to its end: in a
    # window past the truth's last fix every "actual" would read 0.
    covered = [w for w in vtff.grid.windows() if (w + 1) * vtff.window_s <= truth_end_t]
    if not covered:
        sys.exit(f"no forecast window ends by the truth's last fix (t = {truth_end_t:.0f} s)")
    window = covered[-1]
    flow = vtff.predicted_flow(window)
    start, end = window * vtff.window_s, (window + 1) * vtff.window_s
    print(
        f"\nForecast traffic flow, window {window} (t = {start:.0f}-{end:.0f} s, "
        f"truth ends at {truth_end_t:.0f} s; {len(flow)} active cells):"
    )

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
    print(
        f"\nmean absolute error on these cells in window {window}: "
        f"{np.mean(errs):.2f} vessels per cell-window"
    )


if __name__ == "__main__":
    main()
