"""Unit tests for the public invariant checker."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.invariants import (
    InvariantReport,
    InvariantViolation,
    check_converged_invariants,
    stable_routing,
)
from repro.core.params import CISCO_DEFAULTS
from repro.errors import SimulationError
from repro.topology.mesh import mesh_topology
from repro.topology.relationships import RelationshipMap
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def drained_scenario():
    config = ScenarioConfig(topology=mesh_topology(4, 4), damping=CISCO_DEFAULTS, seed=8)
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(1, 60.0))
    return scenario


def test_clean_run_passes(drained_scenario):
    report = check_converged_invariants(drained_scenario)
    assert report.ok
    assert report.routers_checked == 16
    report.raise_on_violation()  # must not raise


CORRUPTIONS = {
    "missing-route": lambda best, victim: None,
    "wrong-next-hop": lambda best, victim: replace(
        best,
        as_path=(victim.neighbors[0], "originAS")
        if best.as_path[0] != victim.neighbors[0]
        else (victim.neighbors[1], "originAS"),
    ),
    "phantom-hop": lambda best, victim: replace(
        best, as_path=("nowhere", "originAS"), learned_from="nowhere"
    ),
    "doubled-path": lambda best, victim: replace(best, as_path=best.as_path * 2),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_detects_corrupted_loc_rib(drained_scenario, corruption):
    """Every way a Loc-RIB can be wrong — no route, a route the
    neighbours never offered, a hop over no link, a looped path — is
    the one ``stable-state`` violation at that router."""
    prefix = drained_scenario.config.prefix
    victim = drained_scenario.routers[sorted(drained_scenario.routers)[0]]
    saved = victim.loc_rib.route(prefix)
    try:
        victim.loc_rib.set_route(prefix, CORRUPTIONS[corruption](saved, victim))
        report = check_converged_invariants(drained_scenario)
        assert [(v.router, v.invariant) for v in report.violations] == [
            (victim.name, "stable-state")
        ]
        with pytest.raises(SimulationError):
            report.raise_on_violation()
    finally:
        victim.loc_rib.set_route(prefix, saved)


def test_withdrawn_origin_expects_no_route():
    """After a final 'down', unreachability is the stable state: the
    solver gives no route anywhere, and a leftover route is flagged."""
    config = ScenarioConfig(topology=mesh_topology(3, 3), damping=None, seed=2)
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(1, 60.0))
    isp = scenario.routers[scenario.isp]
    leftover = isp.best_route(config.prefix)
    scenario.origin.take_down()
    scenario.engine.run()
    assert check_converged_invariants(scenario).ok
    isp.loc_rib.set_route(config.prefix, leftover)
    report = check_converged_invariants(scenario)
    assert [(v.router, v.invariant) for v in report.violations] == [
        (isp.name, "stable-state")
    ]


def test_stable_routing_shortest_path_breaks_ties_by_lowest_next_hop():
    #   o - a - c
    #       |   |
    #       b - d     d reaches a in two hops via b or c: c loses to b
    adjacency = {
        "o": ["a"],
        "a": ["o", "b", "c"],
        "b": ["a", "d"],
        "c": ["a", "d"],
        "d": ["c", "b"],
        "island": [],
    }
    assert stable_routing(adjacency, "o") == {
        "a": ("o",),
        "b": ("a", "o"),
        "c": ("a", "o"),
        "d": ("b", "a", "o"),
    }


def test_stable_routing_no_valley_prefers_customer_and_forbids_valleys():
    # top provides for a and b; a and b peer; a provides for isp, which
    # provides for the origin o; b provides for c.
    relationships = RelationshipMap()
    for provider, customer in (
        ("top", "a"), ("top", "b"), ("a", "isp"), ("isp", "o"), ("b", "c"), ("c", "isp2"),
    ):
        relationships.set_provider(provider, customer)
    relationships.set_peers("a", "b")
    relationships.set_peers("isp", "c")
    adjacency = {node: [] for node in ("top", "a", "b", "c", "isp", "o", "isp2")}
    for u in adjacency:
        for v in adjacency:
            if u < v and relationships.has_relationship(u, v):
                adjacency[u].append(v)
                adjacency[v].append(u)
    paths = stable_routing(adjacency, "o", relationships.relationship)
    assert paths["isp"] == ("o",)
    assert paths["a"] == ("isp", "o")  # customer route
    assert paths["top"] == ("a", "isp", "o")
    # b: a peer route (a, isp, o) beats the provider route via top.
    assert paths["b"] == ("a", "isp", "o")
    # c: the peer route from isp beats the provider route from b.
    assert paths["c"] == ("isp", "o")
    # isp2 hangs below c; c's peer route descends to its customer.
    assert paths["isp2"] == ("c", "isp", "o")


def test_violation_str():
    violation = InvariantViolation("r1", "stable-state", "Loc-RIB None != stable ('o',)")
    assert "r1" in str(violation)
    assert "stable-state" in str(violation)


def test_empty_report_ok():
    report = InvariantReport()
    assert report.ok
    report.raise_on_violation()
