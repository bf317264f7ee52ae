"""The integrated maritime digital-twin platform (Section 3, Figure 2).

This package wires the substrates into the paper's architecture:

* an **ingestion service** consumes streaming AIS data from the broker,
* a :class:`~repro.actors.router.KeyRouter` creates one **vessel actor** per
  MMSI; vessel actors hold per-vessel state, apply the 30-second
  downsampling, and run the short-term route forecasting model that is
  *mounted once per node and shared by every vessel actor*,
* positional data fans out to **cell actors** (H3 cells, proximity
  detection) and forecasts to **collision actors** (H3 cells, collision
  forecasting); both communicate detected events back to the affected
  vessel actors,
* vessel forecasts also feed the **traffic-flow aggregation** (VTFF),
* a single **writer actor** persists actor states and events into the KV
  store, from which the **middleware API** serves the UI.

One entry point: :class:`repro.platform.pipeline.Platform`. Alone it is
the whole platform on one node; constructed on a
:class:`~repro.cluster.node.ClusterNode` (``Platform(node=...)``) it is one
node of a sharded cluster (see :mod:`repro.cluster`), and
:class:`repro.platform.distributed.LoopbackCluster` runs N of those in one
process.
"""

from repro.platform.config import PlatformConfig
from repro.platform.pipeline import Platform
from repro.platform.api import MiddlewareAPI
from repro.platform.distributed import LoopbackCluster

__all__ = [
    "LoopbackCluster",
    "MiddlewareAPI",
    "Platform",
    "PlatformConfig",
]
