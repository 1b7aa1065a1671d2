"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topology.mesh import mesh_topology
from repro.workload.scenarios import ScenarioConfig


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def network(engine: Engine, rng: RngRegistry) -> Network:
    return Network(engine, rng)


@pytest.fixture
def small_mesh():
    return mesh_topology(4, 4)


@pytest.fixture
def fast_config(small_mesh) -> ScenarioConfig:
    """A small, fast scenario used by integration tests."""
    return ScenarioConfig(
        topology=small_mesh,
        damping=CISCO_DEFAULTS,
        seed=7,
        link=LinkConfig(base_delay=0.01, jitter=0.02),
    )


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts converged-state invariant-oracle passes: the list grows by
    one entry per call (the oracle still runs)."""
    import repro.analysis.invariants as invariants

    calls = []
    oracle = invariants.check_converged_invariants
    monkeypatch.setattr(
        invariants,
        "check_converged_invariants",
        lambda scenario: calls.append(scenario) or oracle(scenario),
    )
    return calls
