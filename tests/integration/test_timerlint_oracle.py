"""The runtime timer audit catches every timer-lifecycle hazard.

The opt-in :class:`repro.sim.timers.TimerAudit` observes every
arm/cancel/fire of every :class:`~repro.sim.timers.Timer` and
:meth:`~repro.sim.timers.TimerAudit.verify` reports leaks, double-arms
and unmatched fires. Each hazard is executed here in its runtime shape —
an abandoned armed handle, a guard-bypassed second arm, a hand-called
``_fire`` — and the audit must report it; a clean damped episode and a
mid-flight damping reset must pass it, and auditing must not change a
run's results.
"""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig


def audited_engine():
    engine = Engine()
    return engine, engine.enable_timer_audit()


def test_static_leak_fixture_fails_the_audit():
    """An abandoned armed handle (its event dies behind the timer's
    back): the audit reports exactly one leak."""
    engine, audit = audited_engine()
    timer = Timer(engine, lambda: None, name="x", actor="r", tag="reuse")
    timer.start(5.0)
    timer._event.cancel()  # the dropped handle can never fire or be disarmed
    engine.run()
    violations = audit.verify()
    assert [v.kind for v in violations] == ["leak"]
    assert violations[0].timer == "x"


def test_static_double_arm_fixture_fails_the_audit():
    """Timer.start() raises on a pending handle, and forcing past the
    guard is a double-arm to the audit."""
    from repro.errors import TimerError

    engine, audit = audited_engine()
    timer = Timer(engine, lambda: None, name="x", actor="r", tag="reuse")
    timer.start(5.0)
    with pytest.raises(TimerError):
        timer.start(5.0)
    timer._arm(5.0)  # the guard-bypassed double arm
    engine.run()
    assert "double-arm" in {v.kind for v in audit.verify()}


def test_static_manual_fire_fixture_fails_the_audit():
    """A hand-called ``_fire`` runs the callback outside the event
    boundary and strands the scheduled event, which the audit reports as
    an unmatched fire."""
    engine, audit = audited_engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now), name="x",
                  actor="r", tag="reuse")
    timer.start(5.0)
    timer._fire()
    engine.run()
    assert fired == [0.0]  # flushed synchronously, not at the expiry
    assert "unmatched-fire" in {v.kind for v in audit.verify()}


def test_clean_scenario_passes_the_audit():
    """A full damped episode under the audit: heavy reuse/MRAI timer
    churn, zero lifecycle violations, nothing left armed after drain."""
    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
    )
    scenario = Scenario(config)
    audit = scenario.engine.enable_timer_audit()
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(1, 60.0))
    assert audit.verify() == []
    assert audit.pending_timers() == []
    assert audit.timers_seen > 0
    assert audit.transitions > audit.timers_seen


def test_audit_does_not_change_simulation_results():
    """The audit is passive: an audited run and a plain run of the same
    scenario produce identical message counts and convergence times."""
    def run_once(audited: bool):
        config = ScenarioConfig(
            topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
        )
        scenario = Scenario(config)
        if audited:
            scenario.engine.enable_timer_audit()
        scenario.warm_up()
        result = scenario.run(PulseSchedule.regular(2, 60.0))
        return result.message_count, result.convergence_time

    assert run_once(False) == run_once(True)


def test_reset_damping_mid_flight_leaves_no_armed_orphans():
    """The in-PR fix for the latent reset_damping leak: replacing the
    manager now cancels its reuse timers first, so a mid-flight reset
    passes the audit instead of leaving armed timers firing into a
    discarded manager."""
    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
    )
    scenario = Scenario(config)
    audit = scenario.engine.enable_timer_audit()
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(2, 30.0))
    for _, router in sorted(scenario.routers.items()):
        router.reset_damping()
    # Pre-fix, the replaced managers' reuse timers stayed armed with no
    # owner; cancel_all_timers() in reset_damping disarms them, so the
    # audit sees a fully quiesced end state.
    scenario.engine.run_until_idle(scenario.engine.now + 10_000.0)
    assert audit.verify() == []
    assert audit.pending_timers() == []


def test_mrai_cancel_all_timers_quiesces_the_limiter():
    """MraiLimiter.cancel_all_timers() disarms every pending hold-off but
    keeps deferred prefixes, and the audit agrees nothing leaked."""
    from repro.bgp.mrai import MraiConfig, MraiLimiter
    from repro.sim.rng import RngRegistry

    engine, audit = audited_engine()
    limiter = MraiLimiter(
        engine,
        MraiConfig(base=30.0),
        "r1",
        RngRegistry(master_seed=3),
        lambda peer, prefixes: len(prefixes) > 0,
    )
    limiter.note_sent("p1")
    limiter.defer("p1", "10.0.0.0/8")
    assert limiter.has_pending()
    assert limiter.cancel_all_timers() == 1
    assert limiter.may_send_now("p1")
    assert limiter.pending_prefixes("p1") == {"10.0.0.0/8"}
    engine.run()
    assert audit.verify() == []
    assert audit.pending_timers() == []
