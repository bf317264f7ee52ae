"""Tests for the voyage cadence-sweep benchmark."""

import pytest

from repro.evaluation import run_voyage_bench
from repro.models.voyage import Waypoint

#: One short route and coarse integration steps: the sweep's full code
#: path (per-cadence twins, deltas, report shape) in well under a
#: second. The route crosses seed 2's storm track, so replanning on
#: fresher products genuinely saves fuel even in this tiny sweep.
TINY = dict(
    seeds=(2,),
    routes=((Waypoint(36.0, 8.0), (Waypoint(39.0, 3.0),)),),
    cadences_s={"none": None, "1h": 3_600.0, "6h": 21_600.0},
    deadline_days=9.0,
    sample_step_s=7_200.0,
)


class TestVoyageBench:
    def test_report_shape_and_determinism(self):
        ticks = iter(range(100))
        a = run_voyage_bench(clock=lambda: float(next(ticks)), **TINY)
        b = run_voyage_bench(**TINY)
        report = a.to_json()
        assert report["workload"]["voyages"] == 1
        assert set(report["per_cadence"]) == {"none", "1h", "6h"}
        for row in report["per_cadence"].values():
            assert row["actual_fuel_kg"] > 0.0
            assert row["planned_fuel_kg"] > 0.0
            assert row["mean_arrival_h"] > 0.0
        assert report["per_cadence"]["none"]["replans"] == 0
        assert report["per_cadence"]["1h"]["replans"] > \
            report["per_cadence"]["6h"]["replans"] > 0
        # The injected clock only stamps elapsed time; the sweep itself
        # is a pure function of its arguments.
        assert a.per_cadence == b.per_cadence
        assert a.deltas_pct == b.deltas_pct
        assert a.elapsed_seconds == 1.0  # consecutive clock ticks

    def test_deltas_cover_the_recorded_margins(self):
        result = run_voyage_bench(**TINY)
        assert set(result.deltas_pct) == {"6h_vs_none", "6h_vs_1h"}
        # Replanning through seed 2's storm track saves real fuel.
        assert result.deltas_pct["6h_vs_none"] > 0.0

    def test_plan_once_shares_departure_plan_across_cadences(self):
        """Every cadence sails the same departure plan, so the planned
        totals agree; only the actual burns differ."""
        result = run_voyage_bench(**TINY)
        planned = {row["planned_fuel_kg"]
                   for row in result.per_cadence.values()}
        assert len(planned) == 1

    def test_delta_pct_guards_zero(self):
        from repro.evaluation.voyage import _delta_pct
        assert _delta_pct(0.0, 0.0) == 0.0
        assert _delta_pct(200.0, 150.0) == pytest.approx(25.0)
