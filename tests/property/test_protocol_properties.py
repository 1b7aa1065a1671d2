"""Property-based tests of whole-protocol invariants.

These run complete simulations on randomly drawn topologies, seeds, and
workloads, then check global safety properties that must hold in *every*
converged state — the strongest guard against protocol-logic bugs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.damping import DampingManager
from repro.core.params import CISCO_DEFAULTS, UpdateKind
from repro.sim.engine import Engine
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.workload.scenarios import Scenario, ScenarioConfig
from repro.workload.pulses import PulseSchedule


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
        st.floats(min_value=0.01, max_value=400.0),  # gap before the update
        st.sampled_from(
            [UpdateKind.WITHDRAWAL, UpdateKind.REANNOUNCEMENT, UpdateKind.ATTRIBUTE_CHANGE]
        ),
        st.booleans(),  # charge?
    ),
    min_size=1,
    max_size=50,
)


@given(steps=update_steps)
@settings(max_examples=60, deadline=None)
def test_damping_manager_state_machine_invariants(steps):
    engine = Engine()
    noisy_flags = []
    manager = DampingManager(
        engine, CISCO_DEFAULTS, "r", lambda p, d: noisy_flags.append((p, d)) or False
    )
    for gap, kind, charge in steps:
        engine.schedule(gap, lambda: None)
        engine.run()
        manager.record_update("peer", "p0", kind, charge=charge)
        now = engine.now
        penalty = manager.penalty_value("peer", "p0", now)
        suppressed = manager.is_suppressed("peer", "p0")
        pending = manager.reuse_timer_expiry("peer", "p0")
        # Invariant: suppressed <=> a reuse timer is pending.
        assert suppressed == (pending is not None)
        # Invariant: penalty within bounds.
        assert 0.0 <= penalty <= CISCO_DEFAULTS.penalty_ceiling + 1e-9
        # Invariant: while suppressed, the pending expiry is exactly when
        # the penalty will hit the reuse threshold.
        if pending is not None:
            expected = now + CISCO_DEFAULTS.reuse_delay(penalty)
            assert abs(pending - expected) < 1e-6
    # Drain all timers: nothing may stay suppressed, and each completed
    # suppression produced exactly one reuse event.
    engine.run()
    assert manager.suppressed_entries() == []
    completed = [r for r in manager.suppressions if r.ended is not None]
    assert len(completed) == len(manager.reuse_events)
