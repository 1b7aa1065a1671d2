"""Property-based tests of whole-protocol invariants.

These run complete simulations on randomly drawn topologies, seeds, and
workloads, then check global safety properties that must hold in *every*
converged state — the strongest guard against protocol-logic bugs.
"""

from __future__ import annotations

import functools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.damping import DampingManager, charging_only_reuse_time
from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS, DampingParams, UpdateKind
from repro.sim.engine import Engine
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.workload.scenarios import Scenario, ScenarioConfig
from repro.workload.pulses import PulseSchedule
from tests.reference.rfc2439 import DampedRoute, from_damping_params


def _check_converged_invariants(scenario: Scenario) -> None:
    """A fully drained network sits on its solved stable state."""
    from repro.analysis.invariants import check_converged_invariants

    report = check_converged_invariants(scenario)
    assert report.ok, [str(v) for v in report.violations]
    assert report.routers_checked == len(scenario.routers)


@given(
    size=st.sampled_from([(3, 3), (3, 4), (4, 4)]),
    pulses=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    damping=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_mesh_network_converges_to_consistent_state(size, pulses, seed, damping):
    config = ScenarioConfig(
        topology=mesh_topology(*size),
        damping=CISCO_DEFAULTS if damping else None,
        seed=seed,
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    assert scenario.engine.pending_count == 0
    _check_converged_invariants(scenario)


@given(
    nodes=st.integers(min_value=8, max_value=25),
    topo_seed=st.integers(min_value=0, max_value=30),
    pulses=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    use_no_valley=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_internet_network_converges_to_consistent_state(
    nodes, topo_seed, pulses, seed, use_no_valley
):
    config = ScenarioConfig(
        topology=internet_topology(nodes, seed=topo_seed, with_relationships=True),
        damping=CISCO_DEFAULTS,
        seed=seed,
        use_no_valley=use_no_valley,
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    _check_converged_invariants(scenario)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pulses=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_rcn_mode_preserves_protocol_invariants(seed, pulses):
    config = ScenarioConfig(
        topology=mesh_topology(3, 4), damping=CISCO_DEFAULTS, rcn=True, seed=seed
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    _check_converged_invariants(scenario)


# ----------------------------------------------------------------------
# damping state machine, driven by random update trains
# ----------------------------------------------------------------------

update_steps = st.lists(
    st.tuples(
        # gap before the update; the short ones reach suppression
        st.floats(min_value=0.01, max_value=60.0) | st.floats(min_value=0.01, max_value=400.0),
        st.sampled_from(
            [UpdateKind.WITHDRAWAL, UpdateKind.REANNOUNCEMENT, UpdateKind.ATTRIBUTE_CHANGE]
        ),
        st.booleans(),  # charge?
    ),
    min_size=8,
    max_size=50,
)


damping_params = st.sampled_from([CISCO_DEFAULTS, JUNIPER_DEFAULTS]) | st.builds(
    DampingParams,
    reannouncement_penalty=st.sampled_from([0.0, 500.0, 1000.0]),
    cutoff_threshold=st.floats(min_value=1000.0, max_value=4000.0),
    half_life=st.floats(min_value=60.0, max_value=1800.0),
    max_hold_down=st.floats(min_value=60.0, max_value=3600.0),
)


@given(params=damping_params, steps=update_steps)
@settings(max_examples=100, deadline=None)
def test_damping_manager_state_machine_invariants(params, steps):
    """A DampingManager on a bare Engine follows the RFC 2439 reference
    update by update — penalty, suppression, reuse-timer expiry — and
    ends with the reference's suppressions, recharges, reuse firings and
    charging-only reuse estimates (F7's baseline)."""
    engine = Engine()
    manager = DampingManager(engine, params, "r", lambda peer, prefix: False)
    route = DampedRoute(from_damping_params(params))
    seen = []

    def deliver(kind, charge):
        tie = route.suppressed and abs(engine.now - route.reuse_at) < 1e-6
        outcome = manager.record_update("peer", "p0", kind, charge=charge)
        increment = route.config.increment(kind.value) if charge else 0.0
        expected = route.update(engine.now, increment)
        tie = tie or math.isclose(expected, params.cutoff_threshold, rel_tol=1e-9)
        seen.append((
            tie,
            (outcome.penalty, outcome.suppressed, manager.reuse_timer_expiry("peer", "p0")),
            (expected, route.suppressed, route.reuse_at),
        ))

    now = 0.0
    for gap, kind, charge in steps:
        now += gap
        engine.schedule_at(now, functools.partial(deliver, kind, charge))
    engine.run()
    route.reuse_timer(math.inf)
    assume(not any(tie for tie, _, _ in seen))
    for _, (penalty, suppressed, expiry), (ref_penalty, ref_suppressed, reuse_at) in seen:
        assert math.isclose(penalty, ref_penalty, rel_tol=1e-9, abs_tol=1e-9)
        assert suppressed == ref_suppressed == (expiry is not None)
        if suppressed:
            assert math.isclose(expiry, reuse_at, rel_tol=1e-9)
    assert manager.suppressed_entries() == []
    assert len(manager.suppressions) == len(route.suppressions)
    for record, (started, penalty, first_reuse) in zip(manager.suppressions, route.suppressions):
        assert record.started == started
        assert math.isclose(record.penalty_at_start, penalty, rel_tol=1e-9)
        assert math.isclose(charging_only_reuse_time(record, params), first_reuse, rel_tol=1e-9)
    assert [t for record in manager.suppressions for t in record.recharges] == route.recharges
    reuses = [event.time for event in manager.reuse_events]
    assert len(reuses) == len(route.reuses)
    for fired, expected_time in zip(reuses, route.reuses):
        assert math.isclose(fired, expected_time, rel_tol=1e-9)
