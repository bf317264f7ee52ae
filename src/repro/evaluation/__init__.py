"""Evaluation drivers regenerating the paper's Tables 1-2 and Figure 6.

* :mod:`repro.evaluation.metrics` — displacement errors and detection
  metrics,
* :mod:`repro.evaluation.table1` — S-VRF vs linear kinematic ADE per
  prediction horizon (Table 1),
* :mod:`repro.evaluation.table2` — collision forecasting
  precision/recall/F1/accuracy over the Aegean proximity scenario (Table 2),
* :mod:`repro.evaluation.figure6` — processing time vs number of actors on
  the global stream (Figure 6),
* :mod:`repro.evaluation.reporting` — plain-text table/series rendering so
  benchmarks print the same rows the paper reports,
* :mod:`repro.evaluation.warehouse` — the seeded traffic journal the
  ``warehouse_olap`` benchmark workload compacts and queries,
* :mod:`repro.evaluation.voyage` — plan-vs-actual fuel across replanning
  cadences over the forecast-issuing weather field.
"""

from repro.evaluation.metrics import (
    DetectionCounts,
    ade_per_horizon,
    displacement_errors_m,
)
from repro.evaluation.table1 import Table1Result, run_table1
from repro.evaluation.table2 import Table2Result, Table2Row, run_table2
from repro.evaluation.voyage import (
    VoyageBenchResult,
    run_voyage_bench,
)
from repro.evaluation.warehouse import generate_traffic_journal
from repro.evaluation.figure6 import (
    Figure6Result,
    run_figure6,
    seeded_svrf_forecaster,
)

__all__ = [
    "DetectionCounts",
    "Figure6Result",
    "Table1Result",
    "Table2Result",
    "Table2Row",
    "VoyageBenchResult",
    "ade_per_horizon",
    "displacement_errors_m",
    "generate_traffic_journal",
    "run_figure6",
    "run_table1",
    "run_table2",
    "run_voyage_bench",
    "seeded_svrf_forecaster",
]
