"""Maritime event detection and forecasting functions (Section 5).

* :mod:`repro.events.proximity` — close-proximity detection between vessels,
  the state computed by the platform's H3-cell actors (Figure 4e),
* :mod:`repro.events.switchoff` — intentional AIS switch-off detection [9],
* :mod:`repro.events.collision` — collision forecasting from S-VRF forecast
  trajectories via temporal + spatial intersection on hex cells (Section
  5.2, Figures 4f and 5),
* :mod:`repro.events.vtff` — Vessel Traffic Flow Forecasting, both the
  *indirect* strategy (rasterising S-VRF forecasts onto the hex grid,
  Section 5.1, Figure 4d) and the *direct* flow-sequence baseline from
  [17] used in the ablation study.
"""

from repro.events.proximity import ProximityDetector, ProximityPairEvent
from repro.events.switchoff import SwitchOffDetector, SwitchOffEvent
from repro.events.collision import (
    CollisionForecast,
    trajectories_intersect,
)
from repro.events.vtff import (
    DirectVTFF,
    FlowGrid,
    IndirectVTFF,
    TrafficLevel,
)
from repro.events.congestion import (
    CongestionReport,
    PortCongestionMonitor,
)
from repro.events.avoidance import AvoidanceManeuver, plan_avoidance
from repro.events.voyage import (
    VOYAGE_EVENT_KINDS,
    EtaBreachEvent,
    RouteDivergenceEvent,
    StormAvoidanceEvent,
)

__all__ = [
    "AvoidanceManeuver",
    "EtaBreachEvent",
    "RouteDivergenceEvent",
    "StormAvoidanceEvent",
    "VOYAGE_EVENT_KINDS",
    "CollisionForecast",
    "CongestionReport",
    "DirectVTFF",
    "FlowGrid",
    "IndirectVTFF",
    "PortCongestionMonitor",
    "ProximityDetector",
    "ProximityPairEvent",
    "SwitchOffDetector",
    "SwitchOffEvent",
    "TrafficLevel",
    "plan_avoidance",
    "trajectories_intersect",
]
