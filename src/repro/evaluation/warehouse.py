"""The seeded traffic journal behind the warehouse benchmark.

``generate_traffic_journal`` writes a multi-day synthetic fleet through a
journaled :class:`~repro.kvstore.KeyValueStore` in the writer pool's
exact op shapes (``hmset vessel:{mmsi}`` per kept fix, ``rpush
events:{kind}`` per detected event). ``bench/``'s ``warehouse_olap``
workload compacts it into a fresh :class:`~repro.warehouse.Warehouse`
and times the OLAP query surface over it.
"""

from __future__ import annotations

import math
import random

from repro.geo.bbox import BoundingBox
from repro.kvstore.store import KeyValueStore
from repro.warehouse.warehouse import DAY_S

#: The synthetic fleet sails the Aegean box the examples use.
AREA = BoundingBox(lat_min=36.0, lat_max=39.0, lon_min=23.0, lon_max=26.0)


def generate_traffic_journal(store: KeyValueStore, vessels: int, days: int,
                             fixes_per_day: int, seed: int,
                             event_every: int = 40) -> tuple[int, int]:
    """Journal a seeded fleet's kept fixes + events through ``store``
    (the writer pool's op shapes). Returns (position_rows, event_rows)."""
    rng = random.Random(seed)
    lat_span = AREA.lat_max - AREA.lat_min
    lon_span = AREA.lon_max - AREA.lon_min
    lat = [AREA.lat_min + rng.random() * lat_span for _ in range(vessels)]
    lon = [AREA.lon_min + rng.random() * lon_span for _ in range(vessels)]
    cog = [rng.random() * 360.0 for _ in range(vessels)]
    step_s = DAY_S / fixes_per_day
    positions = events = 0
    for day in range(days):
        for fix in range(fixes_per_day):
            t = day * DAY_S + fix * step_s
            for i in range(vessels):
                # A bounded heading-noise walk keeps traffic clumpy enough
                # for realistic partition skew without drifting offshore.
                cog[i] = (cog[i] + rng.uniform(-20.0, 20.0)) % 360.0
                sog = 4.0 + rng.random() * 14.0
                dist_deg = sog * step_s / (3600.0 * 60.0)
                lat[i] += dist_deg * math.cos(math.radians(cog[i]))
                lon[i] += dist_deg * math.sin(math.radians(cog[i]))
                if not AREA.lat_min < lat[i] < AREA.lat_max:
                    lat[i] = min(max(lat[i], AREA.lat_min), AREA.lat_max)
                    cog[i] = (cog[i] + 180.0) % 360.0
                if not AREA.lon_min < lon[i] < AREA.lon_max:
                    lon[i] = min(max(lon[i], AREA.lon_min), AREA.lon_max)
                    cog[i] = (cog[i] + 180.0) % 360.0
                mmsi = 200_000_000 + i
                store.hmset(f"vessel:{mmsi}", {
                    "t": t, "lat": lat[i], "lon": lon[i],
                    "sog": sog, "cog": cog[i]}, t)
                positions += 1
                if positions % event_every == 0:
                    other = 200_000_000 + rng.randrange(vessels)
                    store.rpush("events:proximity", {
                        "mmsi_a": mmsi, "mmsi_b": other, "t": t,
                        "distance_m": rng.random() * 500.0,
                        "lat": lat[i], "lon": lon[i]}, now=t)
                    events += 1
    return positions, events
