"""Table 2: vessel collision forecasting evaluation.

The paper evaluates on a synthetic Aegean proximity dataset [2] (213
vessels, 237 proximity events) with two sub-datasets: vessels coming into
close proximity in less than 2 minutes (Sub A) and in less than 5 minutes
(Sub B). For each row, collision forecasting runs with the stated temporal
difference threshold using either the linear kinematic model or S-VRF, and
TP/FP/FN with precision, recall, F1 and accuracy are reported.

Reproduction protocol (the paper does not spell out its cutoff mechanics;
this is the natural per-event reading, documented in DESIGN.md):

* every ground-truth event is evaluated at a **cutoff time** a sampled
  *lead* before its closest approach — under 2 min for Sub A, under 5 min
  for Sub B, and up to 10 min for "All events";
* each involved vessel's history is truncated at the cutoff, downsampled at
  30 s and fed to the model; the two forecast trajectories are checked with
  the paper's temporal-then-spatial intersection test (the row's temporal
  difference threshold, the scenario's proximity distance threshold);
* an intersection is a TP, a miss an FN;
* false positives come from the scenario's *near-miss* pairs (converging
  but passing outside the proximity threshold) evaluated identically: a
  forecast intersection for a pair that never comes close is an FP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.ais.datasets import ProximityEvent, ProximityScenario
from repro.ais.preprocessing import downsample_arrays
from repro.events.collision import trajectories_intersect
from repro.evaluation.metrics import DetectionCounts
from repro.geo.track import Position
from repro.models.base import RouteForecaster


@dataclass
class Table2Row:
    """One evaluated configuration (dataset x model x threshold)."""

    dataset: str
    model: str
    temporal_threshold_min: float
    total_events: int
    counts: DetectionCounts

    @property
    def tp(self) -> int:
        return self.counts.tp

    @property
    def fp(self) -> int:
        return self.counts.fp

    @property
    def fn(self) -> int:
        return self.counts.fn


@dataclass
class Table2Result:
    """The reproduced Table 2."""

    rows: list[Table2Row]

    def row(self, dataset: str, model: str, threshold_min: float
            ) -> Table2Row:
        for r in self.rows:
            if (r.dataset == dataset and r.model == model
                    and r.temporal_threshold_min == threshold_min):
                return r
        raise KeyError((dataset, model, threshold_min))

    def svrf_recall_wins(self) -> bool:
        """The paper's headline: S-VRF achieves recall at least matching
        the linear kinematic model in every configuration."""
        ok = True
        for r in self.rows:
            if r.model != "S-VRF":
                continue
            linear = self.row(r.dataset, "Linear Kinematic",
                              r.temporal_threshold_min)
            ok = ok and (r.counts.recall >= linear.counts.recall - 1e-9)
        return ok

    def linear_more_false_negatives(self) -> bool:
        """Paper: the kinematic model produces more FNs, S-VRF more FPs."""
        ok = True
        for r in self.rows:
            if r.model != "S-VRF":
                continue
            linear = self.row(r.dataset, "Linear Kinematic",
                              r.temporal_threshold_min)
            ok = ok and (linear.counts.fn >= r.counts.fn)
        return ok


def _vessel_history(scenario: ProximityScenario, mmsi: int, cutoff_t: float,
                    downsample_s: float = 30.0) -> list[Position]:
    """A vessel's downsampled observed fixes up to the cutoff."""
    msgs = [m for m in scenario.result.messages
            if m.mmsi == mmsi and m.t <= cutoff_t]
    if not msgs:
        return []
    t = np.array([m.t for m in msgs])
    keep = downsample_arrays(t, downsample_s)
    return [Position(t=msgs[i].t, lat=msgs[i].lat, lon=msgs[i].lon,
                     sog=msgs[i].sog, cog=msgs[i].cog) for i in keep]


def _forecast_pair(scenario: ProximityScenario, forecaster: RouteForecaster,
                   mmsi_a: int, mmsi_b: int, cutoff_t: float):
    """Forecast trajectories for both vessels at the cutoff, or ``None``
    when a history is too short for the model."""
    out = []
    for mmsi in (mmsi_a, mmsi_b):
        history = _vessel_history(scenario, mmsi, cutoff_t)
        if len(history) < forecaster.min_history:
            return None
        out.append(forecaster.forecast(mmsi, history))
    return out


def train_table2_model(seed: int = 7, epochs: int = 20,
                       training_scenario_seeds: tuple[int, ...] = (95, 96, 97),
                       cache: bool = True):
    """Train the S-VRF model used for collision forecasting.

    The paper trains S-VRF on the full MarineTraffic European stream, which
    naturally contains manoeuvre-dense coastal traffic alongside open-water
    transits. The synthetic equivalent mixes the Table 1 fleet segments
    with segments from independent proximity scenarios (different seeds
    from the evaluation scenario, so train/test stay disjoint).
    """
    import numpy as np

    from repro.ais.datasets import (
        CACHE_DIR,
        proximity_scenario,
        table1_dataset,
    )
    from repro.ais.fleet import MessageBatch
    from repro.ais.preprocessing import SegmentDataset, build_segments
    from repro.models import SVRFConfig, SVRFModel, train_svrf

    cache_path = None
    if cache:
        scen_key = "-".join(str(s) for s in training_scenario_seeds)
        cache_path = CACHE_DIR / f"svrf-table2-{seed}-{epochs}-{scen_key}.npz"
        if cache_path.exists():  # before the three ~12 s scenario runs below
            return SVRFModel.load(cache_path)
    train, val, _ = table1_dataset(n_vessels=150, duration_s=8 * 3600.0,
                                   seed=seed, cache=cache)
    parts = [train]
    for scen_seed in training_scenario_seeds:
        scen = proximity_scenario(seed=scen_seed)
        msgs = scen.result.messages
        batch = MessageBatch(
            mmsi=np.array([m.mmsi for m in msgs], dtype=np.int64),
            t=np.array([m.t for m in msgs]),
            lat=np.array([m.lat for m in msgs]),
            lon=np.array([m.lon for m in msgs]),
            sog=np.array([m.sog for m in msgs]),
            cog=np.array([m.cog for m in msgs]))
        parts.append(build_segments(batch, stride=1))
    mixed = SegmentDataset.concat(parts)
    config = SVRFConfig(hidden=48, dense=64)
    return train_svrf(mixed, val, config, epochs=epochs, lr=3e-3,
                      cache_path=cache_path)


def assign_event_leads(events: list[ProximityEvent], seed: int,
                       max_lead_s: float = 1_200.0,
                       min_lead_s: float = 30.0) -> dict[ProximityEvent, float]:
    """Assign each event its evaluation lead (forecast-to-event time).

    Leads are drawn once per event (square-root skew towards short leads,
    which is what a stream of continuously re-forecast encounters looks
    like) and shared by every model/threshold configuration. Sub-dataset A
    is then the events with lead < 2 min and Sub-dataset B those with
    lead < 5 min, mirroring the paper's "come into close proximity in less
    than N minutes" selections.
    """
    rng = random.Random(seed)
    leads = {}
    for event in events:
        u = rng.random()
        leads[event] = min_lead_s + (max_lead_s - min_lead_s) * u * u
    return leads


def _evaluate_events(scenario: ProximityScenario,
                     forecaster: RouteForecaster,
                     events: list[ProximityEvent],
                     leads: dict[ProximityEvent, float],
                     temporal_threshold_s: float) -> DetectionCounts:
    counts = DetectionCounts()
    for event in events:
        cutoff = event.t_closest - leads[event]
        pair = _forecast_pair(scenario, forecaster,
                              event.mmsi_a, event.mmsi_b, cutoff)
        if pair is None:
            counts.fn += 1  # no forecast available -> event missed
            continue
        hit = trajectories_intersect(
            pair[0], pair[1],
            temporal_threshold_s=temporal_threshold_s,
            spatial_threshold_m=scenario.proximity_threshold_m)
        if hit is None:
            counts.fn += 1
        else:
            counts.tp += 1
    return counts


def _evaluate_false_positives(scenario: ProximityScenario,
                              forecaster: RouteForecaster,
                              temporal_threshold_s: float,
                              rng: random.Random,
                              n_samples_per_pair: int = 2) -> int:
    """Evaluate never-close pairs; forecast intersections are FPs."""
    event_pairs = {e.pair for e in scenario.events}
    # Candidate non-event pairs: consecutive-MMSI pairs (the scenario
    # builder creates converging/near-miss pairs with adjacent MMSIs).
    mmsis = sorted(scenario.result.truth)
    candidates = [(a, b) for a, b in zip(mmsis, mmsis[1:])
                  if (a, b) not in event_pairs and a % 2 == 0]
    fp = 0
    for a, b in candidates:
        for _ in range(n_samples_per_pair):
            cutoff = rng.uniform(scenario.duration_s * 0.4,
                                 scenario.duration_s * 0.8)
            pair = _forecast_pair(scenario, forecaster, a, b, cutoff)
            if pair is None:
                continue
            hit = trajectories_intersect(
                pair[0], pair[1],
                temporal_threshold_s=temporal_threshold_s,
                spatial_threshold_m=scenario.proximity_threshold_m)
            if hit is not None:
                fp += 1
                break  # one FP per pair, like one logged event per pair
    return fp


def run_table2(scenario: ProximityScenario,
               svrf_forecaster: RouteForecaster,
               linear_forecaster: RouteForecaster | None = None,
               seed: int = 17) -> Table2Result:
    """Regenerate Table 2 over a proximity scenario.

    Eight configurations, as in the paper: {All events x {2, 5} min,
    Sub A x 2 min, Sub B x 5 min} x {Linear Kinematic, S-VRF}. Per-event
    leads are assigned once (seeded) and shared by all configurations, so
    the sub-datasets are genuine subsets of "All events".
    """
    from repro.models.kinematic import LinearKinematicModel
    linear = linear_forecaster or LinearKinematicModel()
    events = scenario.events
    leads = assign_event_leads(events, seed=seed)

    sub_a = [e for e in events if leads[e] < 120.0]
    sub_b = [e for e in events if leads[e] < 300.0]
    specs = [
        ("All Events", 2.0, events),
        ("All Events", 5.0, events),
        ("Sub dataset A", 2.0, sub_a),
        ("Sub dataset B", 5.0, sub_b),
    ]
    rows = []
    for model_name, forecaster in [("Linear Kinematic", linear),
                                   ("S-VRF", svrf_forecaster)]:
        for dataset, threshold_min, evs in specs:
            counts = _evaluate_events(scenario, forecaster, evs, leads,
                                      threshold_min * 60.0)
            counts.fp = _evaluate_false_positives(
                scenario, forecaster, threshold_min * 60.0,
                random.Random(seed + int(threshold_min)))
            rows.append(Table2Row(dataset=dataset, model=model_name,
                                  temporal_threshold_min=threshold_min,
                                  total_events=len(evs), counts=counts))
    return Table2Result(rows=rows)
