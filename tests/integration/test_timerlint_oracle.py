"""Seeded-violation cross-check: timerlint vs. the runtime timer audit.

For every TIM rule, a small fixture seeds exactly the hazard the rule
describes and the static pass must flag it. Where the hazard is
dynamically reachable, the runtime side must trip too: the opt-in
:class:`repro.sim.timers.TimerAudit` observes every arm/cancel/fire and
:meth:`~repro.sim.timers.TimerAudit.verify` reports leaks, double-arms
and unmatched fires. Static and dynamic detection bracketing the same
lifecycle contract is the point — the interpreter cannot see through
``getattr`` tricks, the audit cannot see hazards a run never reaches.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.lint import lint_source
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig

# ----------------------------------------------------------------------
# static side: one seeded violation per TIM rule
# ----------------------------------------------------------------------

_PRELUDE = "from repro.sim.timers import Timer\n\nDELAY = 5.0\n"


def _seed(source: str) -> str:
    return _PRELUDE + textwrap.dedent(source)

SEEDED_VIOLATIONS = {
    "TIM001": (
        _seed("""
        def leak(engine, cb):
            t = Timer(engine, cb, name="x", actor="r", tag="reuse")
            t.start(DELAY)
        """),
        "repro.sim.fixture",
    ),
    "TIM002": (
        _seed("""
        def double(engine, cb):
            t = Timer(engine, cb, name="x", actor="r", tag="reuse")
            t.start(DELAY)
            t.start(DELAY)
            return t
        """),
        "repro.sim.fixture",
    ),
    "TIM006": (
        """
        def flush_now(timer):
            timer._fire()
        """,
        "repro.sim.fixture",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(SEEDED_VIOLATIONS))
def test_seeded_violation_is_flagged_statically(rule_id):
    source, module = SEEDED_VIOLATIONS[rule_id]
    report = lint_source(
        textwrap.dedent(source), path="seeded.py", module=module
    )
    assert not report.parse_errors
    assert rule_id in {f.rule_id for f in report.findings}, (
        f"timerlint did not flag the seeded {rule_id} violation"
    )


def test_seeded_fixtures_are_clean_without_the_seeded_rule():
    """Each fixture seeds *its* violation, not an unrelated TIM soup."""
    for rule_id, (source, module) in SEEDED_VIOLATIONS.items():
        report = lint_source(
            textwrap.dedent(source), path="seeded.py", module=module
        )
        other_tim = {
            f.rule_id
            for f in report.findings
            if f.rule_id.startswith("TIM") and f.rule_id != rule_id
        }
        assert not other_tim, f"{rule_id} fixture also fires {other_tim}"


# ----------------------------------------------------------------------
# dynamic side: the runtime timer audit trips on the same hazards
# ----------------------------------------------------------------------


def audited_engine():
    engine = Engine()
    return engine, engine.enable_timer_audit()


def test_static_leak_fixture_fails_the_audit():
    """TIM001's fixture, executed: the armed handle is abandoned (the
    runtime shape is its event dying behind the timer's back) and the
    audit reports exactly one leak."""
    engine, audit = audited_engine()
    timer = Timer(engine, lambda: None, name="x", actor="r", tag="reuse")
    timer.start(5.0)
    timer._event.cancel()  # the dropped handle can never fire or be disarmed
    engine.run()
    violations = audit.verify()
    assert [v.kind for v in violations] == ["leak"]
    assert violations[0].timer == "x"


def test_static_double_arm_fixture_fails_the_audit():
    """TIM002's fixture, executed: Timer.start() raises on the guarded
    path, and forcing past the guard (the hazard the static rule warns
    about) is a double-arm to the audit."""
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
    """TIM006's fixture, executed: a hand-called ``_fire`` runs the
    callback outside the event boundary and strands the scheduled event,
    which the audit reports as an unmatched fire."""
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
