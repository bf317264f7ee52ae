"""Collision forecasting walkthrough — the Figure 5 information exchange.

Builds the two-vessel crossing of the paper's Figure 5, runs the S-VRF (or
kinematic) forecasts, shows how each forecast position is assigned to its
H3 cell *and the neighbouring cells*, which collision cells the two
trajectories share, and the resulting event as the UI's event list would
show it.

Run:  python examples/collision_watch.py
"""

import random

from repro.ais.datasets import _converging_pair
from repro.ais.simulator import ChannelModel, ScenarioSimulator
from repro.events.collision import trajectories_intersect
from repro.hexgrid import cell_to_string, grid_disk, latlng_to_cell
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig


def main() -> None:
    rng = random.Random(3)
    agent_a, agent_b = _converging_pair(
        rng, 240000001, 240000002, meet_t=2_700.0, miss_distance_m=150.0
    )
    sim = ScenarioSimulator(
        [agent_a, agent_b],
        channel=ChannelModel(coverage=1.0, duplicate_prob=0.0),
        dt_s=10.0,
        seed=3,
    )
    result = sim.run(2_400.0)  # stop 5 minutes before the encounter
    print(f"Two vessels on converging courses: {len(result.messages)} AIS messages simulated")

    # --- Direct view: the per-pair trajectory intersection (Figure 5) ----
    model = LinearKinematicModel()
    history_a = result.truth[240000001][::3]
    history_b = result.truth[240000002][::3]
    fc_a = model.forecast(240000001, history_a)
    fc_b = model.forecast(240000002, history_b)

    print("\nForecast trajectories (present + six 5-minute predictions):")
    for label, fc in (("A", fc_a), ("B", fc_b)):
        print(f"  vessel {label} ({fc.mmsi}):")
        for t, lat, lon in zip(fc.ts, fc.lats, fc.lons):
            cell = latlng_to_cell(lat, lon, 8)
            fanout = grid_disk(cell, 1)
            print(
                f"    t+{t - fc.ts[0]:5.0f}s ({lat:.4f}, {lon:.4f}) -> cell {cell_to_string(cell)} "
                f"(+{len(fanout) - 1} neighbours)"
            )

    cells_a = {latlng_to_cell(lat, lon, 8) for lat, lon in zip(fc_a.lats, fc_a.lons)}
    cells_b = {latlng_to_cell(lat, lon, 8) for lat, lon in zip(fc_b.lats, fc_b.lons)}
    shared = cells_a & cells_b
    print(f"\nCells receiving both trajectories: {[cell_to_string(c) for c in sorted(shared)][:4]}")

    hit = trajectories_intersect(fc_a, fc_b, temporal_threshold_s=120.0, spatial_threshold_m=500.0)
    if hit is None:
        print("No collision forecast for this pair.")
    else:
        print(
            f"Collision forecast: pair {hit.pair}, expected at "
            f"t={hit.t_expected:.0f}s near ({hit.lat:.4f}, {hit.lon:.4f}), "
            f"minimum separation {hit.min_distance_m:.0f} m, "
            f"warning lead {hit.lead_time_s / 60.0:.1f} minutes"
        )

    # --- Platform view: the same encounter end to end --------------------
    print("\nSame encounter through the full actor platform:")
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    platform.publish_messages(result.messages)
    platform.process_available()
    print(
        f"  vessel actors: {platform.vessel_count}, "
        f"collision cells: {platform.collision_cell_count}"
    )
    for ev in platform.api.recent_events("collision", limit=5):
        print(
            f"  event list entry: vessels {ev.pair}, "
            f"ETA t={ev.t_expected:.0f}s, "
            f"min separation {ev.min_distance_m:.0f} m"
        )


if __name__ == "__main__":
    main()
