"""Future-work assets from the paper's outlook (Section 7): port congestion
monitoring/prediction, automated collision-avoidance rerouting, and
weather-enriched H3 cells.

Run:  python examples/port_congestion_and_avoidance.py
"""

import random

import numpy as np

from repro.ais.datasets import _converging_pair, proximity_scenario
from repro.ais.ports import PORTS
from repro.ais.simulator import ChannelModel, ScenarioSimulator
from repro.events import PortCongestionMonitor, plan_avoidance
from repro.events.collision import trajectories_intersect
from repro.geo import Position
from repro.hexgrid import latlng_to_cell
from repro.models import LinearKinematicModel, RouteForecast
from repro.platform import Platform, PlatformConfig
from repro.weather import WeatherField, enrich_cells


def congestion_demo() -> None:
    print("=== Port congestion monitoring (Aegean ports) ===")
    scenario = proximity_scenario(
        n_event_pairs=10, n_near_miss_pairs=4, n_background=30, duration_s=3_600.0, seed=77
    )
    platform = Platform(forecaster=LinearKinematicModel(), config=PlatformConfig())
    platform.publish_messages(scenario.result.messages)
    platform.process_available()

    aegean_ports = [p for p in PORTS if p.region == "aegean"]
    monitor = PortCongestionMonitor(ports=aegean_ports, radius_m=40_000.0)
    now = 0.0

    # Harbour traffic: moored/anchored vessels the open-sea scenario lacks.
    rng = random.Random(1)
    mmsi = 250_000_000
    for port in aegean_ports:
        for _ in range(rng.randint(1, int(port.weight * 8))):
            monitor.observe(
                mmsi,
                t=3_500.0,
                lat=port.lat + rng.uniform(-0.02, 0.02),
                lon=port.lon + rng.uniform(-0.02, 0.02),
                sog=rng.uniform(0.0, 0.5),
            )
            mmsi += 1
    for mmsi in platform.api.active_vessels():
        state = platform.api.vessel_state(mmsi)
        track = platform.api.vessel_forecast(mmsi)
        forecast = None
        if track:
            ts, lats, lons = np.array(track, dtype=np.float64).T.copy()
            forecast = RouteForecast(mmsi, Position(*track[0]), ts, lats, lons)
        monitor.observe(
            mmsi, state["t"], state["lat"], state["lon"], state["sog"], forecast=forecast
        )
        now = max(now, state["t"])

    for port in aegean_ports:
        report = monitor.report(port, now=now)
        if report.projected_occupancy == 0:
            continue
        flag = "  << CONGESTED" if report.congested else ""
        print(
            f"  {port.name:<14} dwelling={report.occupancy:<3} "
            f"moving={len(report.moving):<3} "
            f"arriving<=30min={len(report.expected_arrivals):<3} "
            f"capacity={report.capacity:<3} "
            f"utilisation={report.utilisation:4.0%}{flag}"
        )


def avoidance_demo() -> None:
    print("\n=== Automated collision-avoidance rerouting ===")
    rng = random.Random(5)
    a, b = _converging_pair(rng, 240000001, 240000002, meet_t=2_400.0, miss_distance_m=100.0)
    sim = ScenarioSimulator([a, b], channel=ChannelModel(coverage=1.0), dt_s=10.0, seed=5)
    result = sim.run(1_500.0)  # 15 minutes before the predicted encounter

    model = LinearKinematicModel()
    fc_a = model.forecast(240000001, result.truth[240000001][::3])
    fc_b = model.forecast(240000002, result.truth[240000002][::3])
    hit = trajectories_intersect(fc_a, fc_b, spatial_threshold_m=1_000.0)
    if hit is None:
        print("  no collision forecast — nothing to avoid")
        return
    print(
        f"  collision forecast: pair {hit.pair}, min separation "
        f"{hit.min_distance_m:.0f} m, lead {hit.lead_time_s / 60:.1f} min"
    )

    own_state = result.truth[240000001][-1]
    plan = plan_avoidance(
        fc_a, fc_b, own_sog_kn=own_state.sog, own_cog_deg=own_state.cog, separation_m=1_000.0
    )
    if plan is None:
        print("  no manoeuvre found within the evaluated options")
    else:
        print(f"  recommendation for {plan.mmsi}: {plan.describe()}")


def weather_demo() -> None:
    print("\n=== Weather-enriched H3 cells (fusion outlook) ===")
    field = WeatherField(seed=2024)
    cells = [latlng_to_cell(lat, lon, 5) for lat, lon in [(37.9, 23.6), (38.5, 24.5), (39.2, 25.4)]]
    enriched = enrich_cells(field, cells, t=6 * 3_600.0)
    for cell, cw in enriched.items():
        s = cw.sample
        rough = "  (rough)" if s.is_rough else ""
        print(
            f"  cell {cell}: wind {s.wind_speed_mps:4.1f} m/s from "
            f"{s.wind_direction_deg:5.1f} deg, current "
            f"{s.current_speed_mps:4.2f} m/s, waves "
            f"{s.wave_height_m:3.1f} m{rough}"
        )


if __name__ == "__main__":
    congestion_demo()
    avoidance_demo()
    weather_demo()
