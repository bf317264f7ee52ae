"""Voyage table: plan-vs-actual fuel across replanning cadences.

Deterministic (nothing here reads the wall clock), so the printed rows
are exact reproductions, not samples. Two legs:

* the **sweep** runs :func:`repro.evaluation.run_voyage_bench` — the
  Voyage_Optimization exemplar's experiment B over the synthetic
  forecast-issuing field: every voyage is planned against forecasts
  (degrading toward climatology with lead time) and sailed through
  actuals, at 1h/3h/6h/12h replanning cadences plus the plan-once
  baseline,
* the **platform leg** drives the same optimizer through the deterministic
  single-node :class:`~repro.platform.pipeline.Platform` under its
  virtual clock (no wall-clock reads — the AST audit in
  ``tests/cluster/test_virtual_clock.py`` holds this file to that), so
  the table also shows the three voyage event kinds flowing through
  the event routers and the writer.

Run:  python examples/run_voyage_bench.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ais.message import AISMessage  # noqa: E402
from repro.events.voyage import VOYAGE_EVENT_KINDS  # noqa: E402
from repro.evaluation.voyage import (  # noqa: E402
    DEFAULT_ROUTES,
    DEFAULT_SEEDS,
    run_voyage_bench,
)
from repro.platform.config import PlatformConfig  # noqa: E402
from repro.platform.pipeline import Platform  # noqa: E402

#: Smoke mode sweeps one seed; seed 2's storm track gives the sharpest
#: replanning margin, so even the quick CI leg exercises a real divert.
SMOKE_SEEDS = (2,)


def run_platform_leg(weather_seed: int = 2) -> dict:
    """Voyage events end-to-end through the deterministic platform.

    Assigns three voyages — one with comfortable margins sailing away
    from its track (divergence), one with an impossible deadline (eta
    breach), one whose route crosses seed 2's storm track so the
    departure plan dog-legs (storm avoidance) — and drives fixes on the
    virtual clock. Returns per-kind event counts read back from the
    writer's KV store.
    """
    config = PlatformConfig(
        voyage_optimization=True, weather_seed=weather_seed,
        weather_max_wind_mps=26.0, voyage_replan_cadence_s=21_600.0,
        voyage_divergence_m=5_000.0)
    platform = Platform(config=config)
    diverge, breach, storm = 200_000_101, 200_000_202, 200_000_303
    platform.assign_voyage(diverge, [(36.0, 14.0)],
                           deadline_t=40 * 86_400.0)
    platform.assign_voyage(breach, [(44.0, 20.0)], deadline_t=36_000.0)
    platform.assign_voyage(storm, [(39.0, 3.0)],
                           deadline_t=9 * 86_400.0)
    # First fixes land the departure plans at the process barrier...
    platform.publish_messages([
        AISMessage(mmsi=diverge, t=0.0, lat=36.0, lon=10.0,
                   sog=12.0, cog=0.0),
        AISMessage(mmsi=breach, t=0.0, lat=36.0, lon=10.0,
                   sog=12.0, cog=45.0),
        AISMessage(mmsi=storm, t=0.0, lat=36.0, lon=8.0,
                   sog=12.0, cog=315.0),
    ])
    platform.process_available()
    # ...then the divergence vessel sails due north, off its eastbound
    # planned track, while the breach vessel keeps replanning a voyage
    # it can never finish in time.
    fixes = []
    for i in range(1, 12):
        t = i * 600.0
        fixes.append(AISMessage(mmsi=diverge, t=t, lat=36.0 + 0.02 * i,
                                lon=10.0, sog=12.0, cog=0.0))
        fixes.append(AISMessage(mmsi=breach, t=t, lat=36.0 + 0.01 * i,
                                lon=10.0 + 0.01 * i, sog=12.0, cog=45.0))
    platform.publish_messages(fixes)
    platform.process_available()
    counts = {kind: platform.kvstore.llen(f"events:{kind}")
              for kind in VOYAGE_EVENT_KINDS}
    platform.shutdown()
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single-seed sweep for CI smoke runs")
    parser.add_argument("--seeds", type=int, nargs="*", default=None,
                        help="weather seeds to sweep (default: "
                             f"{list(DEFAULT_SEEDS)})")
    parser.add_argument("--deadline-days", type=float, default=9.0)
    args = parser.parse_args()

    seeds = (SMOKE_SEEDS if args.smoke
             else tuple(args.seeds) if args.seeds else DEFAULT_SEEDS)
    result = run_voyage_bench(seeds=seeds,
                              deadline_days=args.deadline_days)
    report = result.to_json()

    voyages = report["workload"]["voyages"]
    print(f"voyage bench: {len(seeds)} seeds x {len(DEFAULT_ROUTES)} "
          f"routes = {voyages} voyages per cadence")
    for label, row in report["per_cadence"].items():
        print(f"  {label:5s} actual {row['actual_fuel_kg']:10.1f} kg   "
              f"planned {row['planned_fuel_kg']:10.1f} kg   "
              f"replans {row['replans']:4d}   "
              f"diversions {row['diversions']:3d}")
    for name, pct in report["deltas_pct"].items():
        print(f"  {name}: {pct:+.2f}% fuel")
    print(f"  platform events: {run_platform_leg()}")


if __name__ == "__main__":
    main()
