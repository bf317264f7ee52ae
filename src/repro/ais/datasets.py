"""Experiment dataset builders (Tables 1-2, Figure 6) with disk caching.

Each builder maps a paper dataset onto its synthetic equivalent:

* :func:`table1_dataset` — the 24-hour European-area AIS stream of Section
  6.1, segmented into fixed tensors and split 50/25/25.
* :func:`proximity_scenario` — the synthetic Aegean vessel-proximity dataset
  of Section 6.2 ([2]: 213 vessels, 237 proximity events), built from
  deliberately converging vessel pairs plus background traffic, with dense
  ground truth and labelled events.
* :func:`scalability_fleet_config` — the global stream configuration used
  for the Figure 6 run, with vessel count scaled to the host.

Builders cache derived tensors under ``.repro_cache/`` keyed by a hash of
their parameters, because dataset generation is the slowest part of the
benchmark suite.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ais.fleet import FleetConfig, FleetEngine, MessageBatch
from repro.ais.ports import Port
from repro.ais.preprocessing import (
    SegmentDataset,
    build_segments,
    train_val_test_split,
)
from repro.ais.routes import Route
from repro.ais.simulator import (
    ChannelModel,
    ScenarioSimulator,
    SimulationResult,
    VesselAgent,
)
from repro.ais.vessel import VesselType, random_statics
from repro.geo.bbox import AEGEAN_BBOX, PAPER_EVAL_BBOX, BoundingBox
from repro.geo.constants import KNOTS_TO_MPS
from repro.geo.geodesy import destination_point, haversine_m

#: Cache directory at the checkout root (``src/repro/ais/`` -> ``../../..``),
#: whatever the working directory; gitignored, ignored by packaging.
CACHE_DIR = Path(__file__).resolve().parents[3] / ".repro_cache"


def _cache_key(name: str, params: dict) -> Path:
    digest = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()).hexdigest()[:16]
    return CACHE_DIR / f"{name}-{digest}.npz"


# ---------------------------------------------------------------------------
# Table 1: the 24-hour European stream
# ---------------------------------------------------------------------------

def table1_stream(n_vessels: int = 400, duration_s: float = 24 * 3600.0,
                  seed: int = 7, bbox: BoundingBox = PAPER_EVAL_BBOX
                  ) -> MessageBatch:
    """Generate the raw (already channel-degraded) Table 1 message stream."""
    config = FleetConfig(n_vessels=n_vessels, duration_s=duration_s,
                         tick_s=30.0, seed=seed, bbox=bbox,
                         satellite_fraction=0.25, coverage=0.94)
    return FleetEngine(config).run_collect()


def table1_dataset(n_vessels: int = 400, duration_s: float = 24 * 3600.0,
                   seed: int = 7, cache: bool = True
                   ) -> tuple[SegmentDataset, SegmentDataset, SegmentDataset]:
    """Train/val/test segment tensors for the S-VRF evaluation (Table 1)."""
    params = {"n_vessels": n_vessels, "duration_s": duration_s, "seed": seed,
              "v": 2}
    path = _cache_key("table1", params)
    if cache and path.exists():
        data = np.load(path)
        full = SegmentDataset(x=data["x"], y=data["y"],
                              anchor=data["anchor"], mmsi=data["mmsi"])
    else:
        batch = table1_stream(n_vessels=n_vessels, duration_s=duration_s,
                              seed=seed)
        full = build_segments(batch)
        if cache:
            CACHE_DIR.mkdir(exist_ok=True)
            np.savez_compressed(path, x=full.x, y=full.y,
                                anchor=full.anchor, mmsi=full.mmsi)
    return train_val_test_split(full, seed=seed)


# ---------------------------------------------------------------------------
# Table 2: the Aegean proximity-event scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProximityEvent:
    """A ground-truth close-proximity episode between two vessels."""

    mmsi_a: int
    mmsi_b: int
    t_start: float       #: first instant within the proximity threshold
    t_closest: float     #: instant of minimum separation
    min_distance_m: float

    @property
    def pair(self) -> tuple[int, int]:
        return tuple(sorted((self.mmsi_a, self.mmsi_b)))


@dataclass
class ProximityScenario:
    """The full Table 2 evaluation scenario."""

    result: SimulationResult
    events: list[ProximityEvent]
    proximity_threshold_m: float
    duration_s: float

    @property
    def n_vessels(self) -> int:
        return len(self.result.truth)

    @property
    def n_messages(self) -> int:
        return len(self.result.messages)


def _extract_events(result: SimulationResult, threshold_m: float,
                    dt_s: float) -> list[ProximityEvent]:
    """Scan dense ground truth for proximity episodes between all pairs."""
    mmsis = sorted(result.truth)
    # Build aligned time-indexed arrays per vessel.
    tracks = {}
    for mmsi in mmsis:
        tr = result.truth[mmsi]
        if tr:
            tracks[mmsi] = (np.array([p.t for p in tr]),
                            np.array([p.lat for p in tr]),
                            np.array([p.lon for p in tr]))
    events: list[ProximityEvent] = []
    for i, ma in enumerate(mmsis):
        if ma not in tracks:
            continue
        ta, lata, lona = tracks[ma]
        for mb in mmsis[i + 1:]:
            if mb not in tracks:
                continue
            tb, latb, lonb = tracks[mb]
            t0, t1 = max(ta[0], tb[0]), min(ta[-1], tb[-1])
            if t1 <= t0:
                continue
            grid = np.arange(t0, t1, dt_s)
            if grid.size == 0:
                continue
            la = np.interp(grid, ta, lata)
            lo = np.interp(grid, ta, lona)
            lb = np.interp(grid, tb, latb)
            lob = np.interp(grid, tb, lonb)
            d = haversine_m(la, lo, lb, lob)
            close = d < threshold_m
            if not np.any(close):
                continue
            # Split contiguous runs of closeness into distinct events.
            idx = np.flatnonzero(close)
            run_starts = [idx[0]]
            for a, b in zip(idx, idx[1:]):
                if b != a + 1:
                    run_starts.append(b)
            run_ends = [a for a, b in zip(idx, idx[1:]) if b != a + 1] + [idx[-1]]
            for s, e in zip(run_starts, run_ends):
                seg = slice(s, e + 1)
                k = s + int(np.argmin(d[seg]))
                events.append(ProximityEvent(
                    mmsi_a=ma, mmsi_b=mb, t_start=float(grid[s]),
                    t_closest=float(grid[k]),
                    min_distance_m=float(d[k])))
    return events


def _arc_approach_waypoints(aim: tuple[float, float], final_course: float,
                            speed_mps: float, approach_s: float,
                            turn_rate_deg_min: float,
                            step_s: float = 120.0) -> list[tuple[float, float]]:
    """Waypoints of a constant-curvature arc ending at ``aim`` with
    ``final_course``, traced backwards for ``approach_s`` seconds.

    Real converging vessels rarely hold a perfectly straight collision
    course: they approach on gently curving paths (traffic lanes, coastal
    contours, gradual course corrections). Sustained curvature is exactly
    what instantaneous-course dead reckoning misses and what a sequence
    model can learn to extrapolate — the behavioural contrast Table 2
    measures.
    """
    waypoints = [aim]
    lat, lon = aim
    tau = 0.0
    while tau < approach_s:
        step = min(step_s, approach_s - tau)
        heading_at_tau = final_course - turn_rate_deg_min * (tau / 60.0)
        lat, lon = destination_point(lat, lon,
                                     (heading_at_tau + 180.0) % 360.0,
                                     speed_mps * step)
        waypoints.append((lat, lon))
        tau += step
    waypoints.reverse()
    return waypoints


def _converging_pair(rng: random.Random, mmsi_a: int, mmsi_b: int,
                     meet_t: float, miss_distance_m: float,
                     max_turn_rate_deg_min: float = 1.5
                     ) -> tuple[VesselAgent, VesselAgent]:
    """Two vessels arranged to pass within ``miss_distance_m`` at ``meet_t``.

    Each vessel approaches the meeting point on a constant-curvature arc
    (signed turn rate up to ``max_turn_rate_deg_min``); a zero rate is a
    straight approach, the common case, while stronger curvature creates
    the encounters that defeat linear extrapolation at long leads.
    """
    lat_m, lon_m = AEGEAN_BBOX.sample(rng)
    # Keep meeting points away from the box edge.
    lat_m = min(max(lat_m, AEGEAN_BBOX.lat_min + 0.5), AEGEAN_BBOX.lat_max - 0.5)
    lon_m = min(max(lon_m, AEGEAN_BBOX.lon_min + 0.5), AEGEAN_BBOX.lon_max - 0.5)

    theta = rng.uniform(0.0, 360.0)
    sep = rng.uniform(60.0, 180.0)
    agents = []
    for k, (mmsi, brg_from_meet) in enumerate(
            [(mmsi_a, theta), (mmsi_b, (theta + sep) % 360.0)]):
        statics = random_statics(rng, mmsi,
                                 vessel_type=rng.choice([VesselType.CARGO,
                                                         VesselType.PASSENGER,
                                                         VesselType.TANKER]))
        speed_mps = statics.cruise_speed_kn * KNOTS_TO_MPS
        # Offset the actual aim point so minimum separation ~ miss distance.
        aim = destination_point(lat_m, lon_m, (brg_from_meet + 90.0) % 360.0,
                                (miss_distance_m / 2.0) * (1 if k == 0 else -1))
        final_course = (brg_from_meet + 180.0) % 360.0
        turn_rate = rng.uniform(-max_turn_rate_deg_min,
                                max_turn_rate_deg_min)
        waypoints = _arc_approach_waypoints(aim, final_course, speed_mps,
                                            approach_s=meet_t,
                                            turn_rate_deg_min=turn_rate)
        beyond = destination_point(aim[0], aim[1], final_course,
                                   speed_mps * 1_800.0)
        waypoints.append(beyond)

        origin = Port(f"virtual-{mmsi}-o", waypoints[0][0], waypoints[0][1],
                      "aegean")
        dest = Port(f"virtual-{mmsi}-d", beyond[0], beyond[1], "aegean")
        route = Route(origin=origin, destination=dest,
                      waypoints=tuple(waypoints))
        agents.append(VesselAgent(statics=statics, route=route,
                                  start_time=0.0))
    return agents[0], agents[1]


def _background_agent(rng: random.Random, mmsi: int) -> VesselAgent:
    """A vessel on a straight transit that should not meet anyone."""
    statics = random_statics(rng, mmsi)
    lat, lon = AEGEAN_BBOX.sample(rng)
    brg = rng.uniform(0.0, 360.0)
    speed_mps = statics.cruise_speed_kn * KNOTS_TO_MPS
    end = destination_point(lat, lon, brg, speed_mps * 7_200.0)
    route = Route(origin=Port(f"bg-{mmsi}-o", lat, lon, "aegean"),
                  destination=Port(f"bg-{mmsi}-d", end[0], end[1], "aegean"),
                  waypoints=((lat, lon), end))
    return VesselAgent(statics=statics, route=route, start_time=0.0)


def proximity_scenario(n_event_pairs: int = 80, n_near_miss_pairs: int = 18,
                       n_background: int = 17, duration_s: float = 7_200.0,
                       proximity_threshold_m: float = 500.0,
                       max_turn_rate_deg_min: float = 1.5, seed: int = 11
                       ) -> ProximityScenario:
    """Build the Table 2 evaluation scenario.

    ``n_event_pairs`` pairs are steered to pass inside the proximity
    threshold; ``n_near_miss_pairs`` pass just outside it (the false-positive
    bait); ``n_background`` vessels transit without encounters. Events are
    extracted from the dense ground truth afterwards, so the labels are
    exact regardless of how the stochastic kinematics play out.
    """
    rng = random.Random(seed)
    agents: list[VesselAgent] = []
    mmsi = 240_000_000
    for i in range(n_event_pairs):
        # Encounters happen only after every vessel has a full forecasting
        # history window (the paper's vessels stream continuously).
        meet_t = rng.uniform(2_400.0, duration_s - 900.0)
        a, b = _converging_pair(rng, mmsi, mmsi + 1, meet_t,
                                miss_distance_m=rng.uniform(50.0, 350.0),
                                max_turn_rate_deg_min=max_turn_rate_deg_min)
        agents.extend([a, b])
        mmsi += 2
    for i in range(n_near_miss_pairs):
        meet_t = rng.uniform(2_400.0, duration_s - 900.0)
        a, b = _converging_pair(rng, mmsi, mmsi + 1, meet_t,
                                miss_distance_m=rng.uniform(
                                    proximity_threshold_m * 1.3,
                                    proximity_threshold_m * 3.0),
                                max_turn_rate_deg_min=max_turn_rate_deg_min)
        agents.extend([a, b])
        mmsi += 2
    for _ in range(n_background):
        agents.append(_background_agent(rng, mmsi))
        mmsi += 1

    channel = ChannelModel(coverage=0.97, jitter_s=1.0, duplicate_prob=0.01)
    sim = ScenarioSimulator(agents, channel=channel, dt_s=10.0, seed=seed)
    result = sim.run(duration_s)
    events = _extract_events(result, proximity_threshold_m, dt_s=10.0)
    return ProximityScenario(result=result, events=events,
                             proximity_threshold_m=proximity_threshold_m,
                             duration_s=duration_s)


# ---------------------------------------------------------------------------
# Figure 6: the global scalability stream
# ---------------------------------------------------------------------------

def scalability_fleet_config(n_vessels: int = 20_000,
                             duration_s: float = 2 * 3600.0,
                             seed: int = 3) -> FleetConfig:
    """Global-fleet stream for the scalability run.

    Vessels first appear over the run's opening phase (``start_window_s``
    covers 30% of it), reproducing the paper's growing distinct-MMSI count
    followed by a long stable state; the paper's
    170K vessels / 72 h are scaled to the host (documented in
    EXPERIMENTS.md).
    """
    return FleetConfig(n_vessels=n_vessels, duration_s=duration_s,
                       tick_s=30.0, seed=seed, bbox=None,
                       start_window_s=duration_s * 0.3,
                       satellite_fraction=0.35, coverage=0.95)
