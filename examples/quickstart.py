"""Quickstart: run the full maritime digital-twin platform on a small
synthetic Aegean scenario.

This walks the complete paper pipeline in ~30 seconds:

1. simulate a fleet of vessels (some on collision courses) and their
   irregular AIS transmissions,
2. publish the stream into the Kafka-like broker as raw AIVDM sentences,
3. let the platform ingest it — one actor per vessel, the shared
   forecasting model at the actor level, H3-cell proximity actors and
   collision cells, the writer actor persisting into the Redis-like store,
4. query the middleware API the way the UI would.

Run:  python examples/quickstart.py
"""

from repro.ais.datasets import proximity_scenario
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig


def main() -> None:
    print("Simulating an Aegean scenario (converging pairs + background)...")
    scenario = proximity_scenario(n_event_pairs=8, n_near_miss_pairs=3,
                                  n_background=4, duration_s=3_600.0, seed=42)
    print(f"  {scenario.n_vessels} vessels, {scenario.n_messages} AIS "
          f"messages, {len(scenario.events)} ground-truth proximity events")

    # The quickstart mounts the linear kinematic model (instant); swap in a
    # trained S-VRF via repro.evaluation.table2.train_table2_model() for the
    # data-driven forecasts the paper deploys.
    platform = Platform(forecaster=LinearKinematicModel(),
                        config=PlatformConfig(record_metrics=True))

    print("Publishing the stream as raw AIVDM sentences...")
    sentences = Platform.to_nmea(scenario.result.messages)
    platform.publish_nmea(sentences)

    print("Processing through the actor pipeline...")
    dispatched = platform.process_available()
    print(f"  {dispatched} messages dispatched to "
          f"{platform.vessel_count} vessel actors; "
          f"{platform.proximity_cell_count} proximity cells tracked, "
          f"{platform.collision_cell_count} collision cells occupied")

    print("\n--- Middleware API queries (what the UI calls) ---")
    mmsi = scenario.result.messages[0].mmsi
    state = platform.api.vessel_state(mmsi)
    print(f"vessel {mmsi}: lat={state['lat']:.4f} lon={state['lon']:.4f} "
          f"sog={state['sog']:.1f}kn cog={state['cog']:.0f}")
    forecast = platform.api.vessel_forecast(mmsi)
    print(f"  forecast track ({len(forecast)} positions, 30 min horizon):")
    for t, lat, lon in forecast[:3]:
        print(f"    t+{t - state['t']:4.0f}s -> ({lat:.4f}, {lon:.4f})")
    print("    ...")

    for kind in ("proximity", "collision", "switchoff"):
        print(f"{kind} events logged: {platform.api.event_count(kind)}")

    events = platform.api.recent_events("collision", limit=3)
    for ev in events:
        print(f"  forecast collision {ev.pair} at t={ev.t_expected:.0f}s "
              f"(lead {ev.lead_time_s:.0f}s, min sep {ev.min_distance_m:.0f}m)")

    counts, durations = platform.system.metrics.as_arrays()
    print(f"\nper-message processing: mean "
          f"{durations.mean() * 1e3:.3f} ms over {len(durations)} messages")


if __name__ == "__main__":
    main()
