"""Enforce the injectable-clock contract of the cluster layer.

Deterministic simulation replays a seed on a virtual clock; any code path
that reads the ``time`` module directly (outside a default argument)
races real time against virtual time and silently breaks replay. The AST
audit pins that contract; the behavioral tests prove the clock a node is
built with actually reaches its failure detector and its auto-wrapped
batching transport.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro.cluster.membership as membership_mod
import repro.cluster.node as node_mod
import repro.cluster.transport as transport_mod
import repro.evaluation.voyage as eval_voyage_mod
import repro.models.fuel as fuel_mod
import repro.models.voyage as voyage_mod
import repro.platform.batching as batching_mod
import repro.platform.forecast_service as forecast_service_mod
import repro.platform.route_optimizer as route_optimizer_mod
import repro.platform.writer_actor as writer_actor_mod
import repro.sim as sim_package
import repro.telemetry as telemetry_mod
import repro.telemetry.registry as tel_registry_mod
import repro.telemetry.trace as tel_trace_mod
import repro.weather.enrichment as weather_enrichment_mod
import repro.weather.field as weather_field_mod
import repro.weather.forecast as weather_forecast_mod
from repro.cluster import ClusterConfig, ClusterNode, LoopbackHub, VirtualClock
from repro.cluster.membership import MemberState, Membership
from repro.cluster.transport import BatchingTransport

# The telemetry layer timestamps every histogram and trace hop, so it is
# held to the same injectable-clock contract as the cluster modules. The
# micro-batcher and its three owners (forecast service, route optimizer,
# writer) linger and stamp submissions on the actor system's virtual
# clock — a wall-clock read there would detach batch timing from
# deterministic replay. The voyage-optimization subsystem plans must be
# pure functions of (seed, route, stream time) so plan fingerprints
# compare across crash recovery and live migration — a wall-clock read
# anywhere in the weather fields, the fuel model, the planner, the pooled
# optimizer, or the bench sweep would break that bit-for-bit. (The sim
# campaigns that compare them run on the virtual clock too: ``repro.sim``
# is audited whole, by directory, below.)
AUDITED_MODULES = [
    membership_mod,
    transport_mod,
    node_mod,
    batching_mod,
    forecast_service_mod,
    route_optimizer_mod,
    writer_actor_mod,
    telemetry_mod,
    tel_registry_mod,
    tel_trace_mod,
    weather_field_mod,
    weather_forecast_mod,
    weather_enrichment_mod,
    fuel_mod,
    voyage_mod,
    eval_voyage_mod,
]

REPRO = pathlib.Path(sim_package.__file__).parents[1]

# Whole packages, audited by walking their directories so a new module
# joins without another import line. The serving tier stamps push latency
# on injectable ``clock=time.monotonic`` defaults; the kvstore expires keys
# by the ``now`` its callers pass; the warehouse must produce
# byte-identical segments for a given journal whenever compaction runs
# (its query layer's ``clock=time.perf_counter`` latency default is the
# sanctioned exception).
AUDITED_PACKAGES = ("serving", "kvstore", "warehouse")

#: ``(dotted module name, source path)`` of every audited module.
AUDITED_SOURCES = [(m.__name__, pathlib.Path(m.__file__)) for m in AUDITED_MODULES] + [
    (f"repro.{package}" + ("" if path.stem == "__init__" else f".{path.stem}"), path)
    for package in AUDITED_PACKAGES
    for path in sorted((REPRO / package).glob("*.py"))
]


def _time_reads_in_file(path: pathlib.Path, label: str) -> list[str]:
    """Every ``time.*`` attribute access in ``path``'s source that is
    not a function-signature default (the sanctioned injection point)."""
    source = path.read_text()
    tree = ast.parse(source)
    default_nodes: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in node.args.defaults + node.args.kw_defaults:
                if default is not None:
                    for sub in ast.walk(default):
                        default_nodes.add(id(sub))
    offenders = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and id(node) not in default_nodes
        ):
            offenders.append(f"{label}:{node.lineno} time.{node.attr}")
    return offenders


@pytest.mark.parametrize("name, path", AUDITED_SOURCES, ids=[name for name, _ in AUDITED_SOURCES])
def test_no_wall_clock_reads_outside_defaults(name, path):
    offenders = _time_reads_in_file(path, name)
    assert not offenders, (
        "wall-clock reads outside injectable defaults (route these "
        "through the clock parameter): " + ", ".join(offenders)
    )


SIM_SOURCES = sorted((REPRO / "sim").glob("*.py"))


@pytest.mark.parametrize("path", SIM_SOURCES, ids=[p.stem for p in SIM_SOURCES])
def test_sim_package_is_wall_clock_free(path):
    """Every ``repro.sim`` module — driver, campaigns, hub, workload —
    runs on the scenario's virtual clock; walking the directory audits
    new campaign modules without another import line."""
    offenders = _time_reads_in_file(path, f"repro.sim.{path.stem}")
    assert not offenders, "wall-clock reads outside injectable defaults: " + ", ".join(offenders)


def test_voyage_bench_example_is_wall_clock_free():
    """The voyage bench CLI drives the platform leg on the virtual
    clock; it is not importable as a module, so audit it by path."""
    path = pathlib.Path(__file__).resolve().parents[2] / "examples" / "run_voyage_bench.py"
    offenders = _time_reads_in_file(path, "examples/run_voyage_bench.py")
    assert not offenders, "wall-clock reads outside injectable defaults: " + ", ".join(offenders)


def test_membership_detector_runs_on_injected_clock():
    clock = VirtualClock()
    config = ClusterConfig(suspect_after_s=2.0, down_after_s=5.0)
    membership = Membership("node-00", "addr0", config, clock=clock)
    membership.add("node-01", "addr1")
    # No real time may pass in this test; only virtual advances matter.
    clock.advance(2.5)
    assert [e.state for e in membership.check()] == [MemberState.SUSPECT]
    clock.advance(3.0)
    assert [e.state for e in membership.check()] == [MemberState.DOWN]
    assert membership.get("node-01").state is MemberState.DOWN


def test_auto_wrapped_batching_transport_inherits_node_clock():
    """A node built with ``transport_batching`` wraps its transport in a
    BatchingTransport that must linger on the node's clock, not wall
    time — otherwise virtual-time runs flush on a racing real timer."""
    clock = VirtualClock()
    hub = LoopbackHub()
    node = ClusterNode(
        "node-00",
        hub.transport("node-00"),
        config=ClusterConfig(transport_batching=True, batch_linger_ms=1000.0),
        clock=clock,
    )
    try:
        assert isinstance(node.transport, BatchingTransport)
        assert node.transport._clock is clock
    finally:
        node.shutdown()


def test_explicit_batching_transport_accepts_clock():
    clock = VirtualClock()
    hub = LoopbackHub()
    wrapped = BatchingTransport(hub.transport("node-00"), clock=clock)
    assert wrapped._clock is clock
