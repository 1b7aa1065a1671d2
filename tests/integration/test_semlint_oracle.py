"""The runtime checks that guard the RFD/BGP layers' semantic contracts.

The converged-state invariant oracle
(:func:`repro.analysis.invariants.check_converged_invariants`) holds a
drained scenario to the solved stable state and to an empty suppression
table, and the engine's scheduling guards refuse hand-rolled expiry
arithmetic. Each contract is broken here in its runtime shape — a
Loc-RIB no pure decision process converges to, a silent withdrawal, a
foreign ``.suppressed`` write, a past expiry — and the check must trip.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.analysis.invariants import check_converged_invariants
from repro.core.params import CISCO_DEFAULTS
from repro.errors import SimulationError
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig


def drained_scenario() -> Scenario:
    """A small damped mesh, warmed up and run to a fully drained state."""
    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(1, 60.0))
    return scenario


@pytest.fixture(scope="module")
def healthy():
    return drained_scenario()


def test_clean_run_passes_the_oracle(healthy):
    report = check_converged_invariants(healthy)
    assert report.ok
    assert report.routers_checked == 9
    report.raise_on_violation()  # must be a no-op


def test_corrupted_loc_rib_trips_decision_consistency():
    """A Loc-RIB that no pure decision process would converge to is off
    the solved stable state."""
    scenario = drained_scenario()
    router = scenario.routers[sorted(scenario.routers)[0]]
    prefix = scenario.config.prefix
    best = router.best_route(prefix)
    assert best is not None
    # A doubled AS path is loopy and not the stable route — exactly what
    # an unobserved foreign mutation produces.
    router.loc_rib.set_route(prefix, dc_replace(best, as_path=best.as_path * 2))
    report = check_converged_invariants(scenario)
    assert {v.invariant for v in report.violations} == {"stable-state"}
    with pytest.raises(SimulationError):
        report.raise_on_violation()


def test_silent_withdrawal_trips_reachability():
    """Wiping a Loc-RIB entry without telling anyone leaves a silently
    unreachable router."""
    scenario = drained_scenario()
    router = scenario.routers[sorted(scenario.routers)[-1]]
    router.loc_rib.set_route(scenario.config.prefix, None)
    report = check_converged_invariants(scenario)
    assert {v.invariant for v in report.violations} == {"stable-state"}
    assert report.violations[0].router == router.name


def test_foreign_suppression_write_trips_drain():
    """A .suppressed write outside DampingManager leaves a suppressed
    entry no reuse timer will ever release."""
    scenario = drained_scenario()
    router = next(
        r for _, r in sorted(scenario.routers.items()) if r.damping is not None
    )
    entry = router.damping._entry("rogue-peer", scenario.config.prefix)
    entry.suppressed = True
    assert router.suppressed_entry_count() == 1
    report = check_converged_invariants(scenario)
    assert {v.invariant for v in report.violations} == {"drain"}
    with pytest.raises(SimulationError):
        report.raise_on_violation()


def test_hand_rolled_past_expiry_rejected_by_engine(healthy):
    """Expiry arithmetic done by hand (here, an already-elapsed absolute
    instant) is what Engine.schedule_at and Engine.schedule refuse."""
    engine = healthy.engine
    assert engine.now > 0.0
    with pytest.raises(SimulationError):
        engine.schedule_at(engine.now - 10.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_run_point_invariant_toggle(oracle_calls):
    """Satellite wiring: ``check_invariants=True`` makes a point pay for
    an oracle pass (and a clean run passes it); the default does not."""
    from repro.workload.scenarios import run_scenario

    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
    )
    schedule = PulseSchedule.regular(1, 60.0)
    assert run_scenario(config, schedule)[1].message_count > 0
    assert not oracle_calls
    _, checked = run_scenario(config, schedule, check_invariants=True)
    assert checked.message_count > 0
    assert len(oracle_calls) == 1
