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
3. **Event parity** — the (kind, vessel-pair) event set equals that of
   the fault-free oracle: one standalone ``Platform`` fed the same
   workload (no cluster, so a cluster bug cannot hide on both sides).
4. **No delivery to a downed node** — the hub never hands a frame to a
   crashed endpoint.
5. **Exclusive ownership** — no entity key is hosted by two live nodes
   at once, and at the end every hosted key sits on its shard's owner;
   the rebalance campaign also samples it at every chunk boundary.

:mod:`~repro.sim.campaign` holds the one :class:`~repro.sim.campaign.Scenario`
and the one :func:`~repro.sim.campaign.run` every cluster campaign goes
through (form the cluster, drive chunks under a fault script, heal,
replay, check against :func:`~repro.sim.campaign.fault_free_oracle`,
digest into a :class:`~repro.sim.campaign.CampaignReport`);
:mod:`~repro.sim.recovery`, :mod:`~repro.sim.rebalance` and
:mod:`~repro.sim.voyage` hold the fleets and named checks their campaigns
add, and :mod:`~repro.sim.warehouse` the single-node compaction campaign.
The scenarios themselves are declared in ``tests/sim/``.
"""

from repro.sim.campaign import CampaignReport, FaultStep, Fleet, Scenario, SimCluster, run
from repro.sim.faults import FaultSpec
from repro.sim.invariants import Violation
from repro.sim.transport import SimHub
from repro.sim.warehouse import WarehouseScenario, run_warehouse_scenario
from repro.sim.workload import Workload, generate_workload

__all__ = [
    "CampaignReport",
    "FaultSpec",
    "FaultStep",
    "Fleet",
    "Scenario",
    "SimCluster",
    "SimHub",
    "Violation",
    "WarehouseScenario",
    "Workload",
    "generate_workload",
    "run",
    "run_warehouse_scenario",
]
