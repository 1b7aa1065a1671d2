"""The simulator converges to the independently solved stable routing.

:func:`repro.analysis.invariants.stable_routing` computes each policy's
one stable state from the graph and the relationships alone. These tests
hold every Loc-RIB to it after warm-up (up to 1k nodes), after a flapping
episode (damping delays convergence, never changes where it ends), and
after permanent link and router failures (the solution on the graph that
is left) — and pin the one case where the network legitimately ends off
it: updates lost on a link that stays lossy are never re-sent.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.invariants import check_converged_invariants, stable_routing
from repro.core.params import CISCO_DEFAULTS
from repro.experiments.base import (
    internet100_config,
    internet208_config,
    mesh100_config,
)
from repro.faults.plan import FaultPlan, LinkFault, LinkImpairment, RouterCrash
from repro.topology.io import load_topology
from repro.topology.mesh import mesh_topology
from repro.topology.model import Topology, build_adjacency
from repro.topology.relationships import RelationshipMap
from repro.topology.scale import (
    ingest_as_relationships,
    powerlaw_topology,
    write_as_relationships,
)
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ORIGIN_NAME, Scenario, ScenarioConfig, run_scenario

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "fixtures" / "internet1k.json"
)


def _loc_ribs(scenario):
    prefix = scenario.config.prefix
    return {
        name: best.as_path
        for name, router in scenario.routers.items()
        if (best := router.best_route(prefix)) is not None
    }


def _solved(scenario, without_edge=(), without_router=None):
    """The solver on the scenario's topology plus the origin's link,
    minus one edge or one router."""
    adjacency = {ORIGIN_NAME: [scenario.isp]}
    for node, neighbours in scenario.config.topology.adjacency.items():
        if node != without_router:
            adjacency[node] = [
                n
                for n in neighbours
                if n != without_router and {node, n} != set(without_edge)
            ]
    adjacency[scenario.isp].append(ORIGIN_NAME)
    return stable_routing(adjacency, ORIGIN_NAME, scenario.relationship)


def _internet1k(use_no_valley):
    return ScenarioConfig(
        topology=load_topology(FIXTURE),
        damping=CISCO_DEFAULTS,
        use_no_valley=use_no_valley,
        coalesce_delivery=True,
        seed=42,
    )


def _internet1k_caida(tmp_path):
    path = tmp_path / "rel.txt"
    write_as_relationships(load_topology(FIXTURE), path)
    return ScenarioConfig(
        topology=ingest_as_relationships(path),
        damping=CISCO_DEFAULTS,
        use_no_valley=True,
        coalesce_delivery=True,
        seed=42,
    )


def _longer_customer_route(tmp_path):
    """r's customer route (c1, c2, isp) is a hop longer than its provider
    route (p, isp): prefer-customer, not path length, decides. (On the
    depth-assigned synthetic graphs a customer route is always also a
    shortest one, so only a hand-built graph tells the two apart.)"""
    pairs = [("p", "r"), ("p", "isp"), ("r", "c1"), ("c1", "c2"), ("c2", "isp")]
    relationships = RelationshipMap()
    for provider, customer in pairs:
        relationships.set_provider(provider, customer)
    topology = Topology(
        "prefer-customer",
        build_adjacency(["c1", "c2", "isp", "p", "r"], pairs),
        relationships,
    )
    return ScenarioConfig(topology=topology, use_no_valley=True, isp="isp")


WARM_UP_CASES = {
    "longer-customer-route": _longer_customer_route,
    "mesh100": lambda tmp: mesh100_config(),
    "internet100": lambda tmp: internet100_config(),
    "internet208": lambda tmp: internet208_config(),
    "internet208-no-valley": lambda tmp: internet208_config(use_no_valley=True),
    "powerlaw1k": lambda tmp: ScenarioConfig(
        topology=powerlaw_topology(1000, seed=3),
        damping=CISCO_DEFAULTS,
        coalesce_delivery=True,
        seed=42,
    ),
    "internet1k": lambda tmp: _internet1k(use_no_valley=False),
    "internet1k-no-valley": lambda tmp: _internet1k(use_no_valley=True),
    "internet1k-caida-no-valley": _internet1k_caida,
}


@pytest.mark.parametrize("case", sorted(WARM_UP_CASES))
def test_warm_up_reaches_the_solved_stable_state(case, tmp_path):
    scenario = Scenario(WARM_UP_CASES[case](tmp_path))
    scenario.warm_up()
    solved = _solved(scenario)
    assert len(solved) == len(scenario.routers)
    assert _loc_ribs(scenario) == solved


@pytest.mark.parametrize(
    "config",
    [mesh100_config(), internet208_config(use_no_valley=True)],
    ids=["mesh100", "internet208-no-valley"],
)
def test_drained_episode_returns_to_the_warm_up_state(config):
    """Damping delays convergence; it never changes where it ends."""
    scenario = Scenario(config)
    scenario.warm_up()
    warm = _loc_ribs(scenario)
    result = scenario.run(PulseSchedule.regular(3, 60.0))
    assert result.summary.total_suppressions > 0
    assert _loc_ribs(scenario) == warm


def _faulted(**plan):
    config = ScenarioConfig(
        topology=mesh_topology(5, 5),
        damping=CISCO_DEFAULTS,
        seed=3,
        faults=FaultPlan(**plan),
    )
    return run_scenario(config, PulseSchedule.regular(1, 60.0))


def test_permanent_link_fault_converges_to_the_graph_without_it():
    isp, neighbour = "m02x01", "m01x01"  # the ISP on seed 3; a torus has no bridges
    scenario, _ = _faulted(link_faults=(LinkFault(isp, neighbour, down_at=300.0),))
    assert scenario.isp == isp
    solved = _solved(scenario, without_edge=(isp, neighbour))
    assert len(solved) == 25
    assert solved != _solved(scenario)
    assert _loc_ribs(scenario) == solved
    assert check_converged_invariants(scenario).ok


def test_permanent_router_crash_converges_to_the_graph_without_it():
    crashed = "m01x01"
    scenario, _ = _faulted(crashes=(RouterCrash(crashed, at=300.0),))
    solved = _solved(scenario, without_router=crashed)
    assert len(solved) == 24 and crashed not in solved
    assert solved != _solved(scenario)
    assert _loc_ribs(scenario) == solved
    assert check_converged_invariants(scenario).ok


def test_updates_lost_on_a_link_that_stays_lossy_leave_the_network_off_stable():
    """Lost updates are never re-sent: with loss 0.5 on m00x00-m00x01 for
    the whole episode, two routers end on a path that is not the stable
    one, and the oracle names the loss as the likely cause."""
    topology = mesh_topology(5, 5)
    a, b = topology.edges[0]
    config = ScenarioConfig(
        topology=topology,
        damping=CISCO_DEFAULTS,
        seed=3,
        faults=FaultPlan(impairments=(LinkImpairment(a, b, start=0.0, loss=0.5),)),
    )
    scenario, result = run_scenario(config, PulseSchedule.regular(3, 60.0))
    lost = result.collector.drops_by_reason()["loss"]
    assert lost > 0
    report = check_converged_invariants(scenario)
    assert [(v.router, v.invariant) for v in report.violations] == [
        ("m00x00", "stable-state"),
        ("m00x04", "stable-state"),
    ]
    assert all(f"({lost} update(s) lost" in v.detail for v in report.violations)
