"""Deterministic simulation testing of the cluster (FoundationDB style).

One seed drives *everything* nondeterministic in a simulated cluster run:
the workload (:mod:`~repro.sim.workload`), the fault timeline — message
drops, duplication, delay-induced reordering, partitions, node crashes —
(:mod:`~repro.sim.faults`, :mod:`~repro.sim.transport`) and the virtual
clock the failure detector reads. A failing run therefore reproduces
byte-for-byte from its seed alone (``pytest tests/sim --sim-seed N``).

After every cluster campaign the standard invariants are checked
(:mod:`~repro.sim.invariants`):

1. **Shard convergence** — every live node holds the identical final
   shard table, internally sound, owned only by live nodes.
2. **No acknowledged position lost** — after healing and a full AIS
   replay (:meth:`Consumer.seek` to offset 0), every published vessel is
   hosted by exactly one live node and carries the newest acknowledged
   position.
3. **Event parity** — the (kind, vessel-pair) event set equals that of a
   fault-free run of the same seed.
4. **No delivery to a downed node** — the hub never hands a frame to a
   crashed endpoint.
5. **Exclusive ownership** — no entity key is hosted by two live nodes
   at once; the rebalance campaign samples it at every chunk boundary.

:mod:`~repro.sim.campaign` is the one driver every cluster campaign runs
on (form the cluster, drive chunks under a fault script, heal, replay,
check, digest); :func:`~repro.sim.scenario.run_scenario` and its
siblings add their workload and extra checks and return a
:class:`~repro.sim.campaign.CampaignReport`; the pytest layer lives in
``tests/sim/``.
"""

from repro.sim.campaign import FaultStep, SimCluster
from repro.sim.faults import FaultSpec
from repro.sim.invariants import Violation
from repro.sim.rebalance import (
    RebalanceReport,
    RebalanceScenario,
    run_rebalance_scenario,
)
from repro.sim.recovery import (
    RecoveryReport,
    RecoveryScenario,
    run_recovery_scenario,
)
from repro.sim.scenario import Scenario, SimReport, run_scenario
from repro.sim.transport import SimHub
from repro.sim.voyage import (
    VoyageReport,
    VoyageScenario,
    run_voyage_scenario,
)
from repro.sim.warehouse import (
    WarehouseReport,
    WarehouseScenario,
    run_warehouse_scenario,
)
from repro.sim.workload import Workload, generate_workload

__all__ = [
    "FaultSpec",
    "FaultStep",
    "RebalanceReport",
    "RebalanceScenario",
    "RecoveryReport",
    "RecoveryScenario",
    "Scenario",
    "SimCluster",
    "SimHub",
    "SimReport",
    "Violation",
    "VoyageReport",
    "VoyageScenario",
    "WarehouseReport",
    "WarehouseScenario",
    "Workload",
    "generate_workload",
    "run_rebalance_scenario",
    "run_recovery_scenario",
    "run_scenario",
    "run_voyage_scenario",
    "run_warehouse_scenario",
]
