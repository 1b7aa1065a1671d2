"""Unit tests for cancellable/reschedulable timers."""

from __future__ import annotations

import pytest

from repro.errors import TimerError
from repro.sim.engine import Engine
from repro.sim.timers import Timer, TimerState


@pytest.fixture
def engine():
    return Engine()


def make_timer(engine, log):
    return Timer(engine, lambda: log.append(engine.now), name="t")


def test_timer_starts_idle(engine):
    timer = Timer(engine, lambda: None)
    assert timer.state is TimerState.IDLE
    assert not timer.is_pending
    assert timer.expiry is None


def test_timer_fires_at_expiry(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(5.0)
    assert timer.is_pending
    assert timer.expiry == 5.0
    engine.run()
    assert log == [5.0]
    assert timer.state is TimerState.FIRED


def test_start_while_pending_raises(engine):
    timer = Timer(engine, lambda: None)
    timer.start(1.0)
    with pytest.raises(TimerError):
        timer.start(2.0)


def test_reschedule_moves_expiry_later(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    timer.reschedule(10.0)
    engine.run()
    assert log == [10.0]


def test_reschedule_moves_expiry_earlier(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(10.0)
    timer.reschedule(1.0)
    engine.run()
    assert log == [1.0]


def test_reschedule_arms_idle_timer(engine):
    log = []
    timer = make_timer(engine, log)
    timer.reschedule(3.0)
    engine.run()
    assert log == [3.0]


def test_timer_fires_once_per_arming(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    engine.run()
    engine.schedule(1.0, lambda: None)
    engine.run()
    assert log == [1.0]


def test_cancel_prevents_firing(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    timer.cancel()
    engine.run()
    assert log == []
    assert timer.state is TimerState.CANCELLED


def test_cancel_idle_is_noop(engine):
    timer = Timer(engine, lambda: None)
    timer.cancel()
    assert timer.state is TimerState.IDLE


def test_restart_if_idle_when_idle(engine):
    log = []
    timer = make_timer(engine, log)
    assert timer.restart_if_idle(2.0) is True
    engine.run()
    assert log == [2.0]


def test_restart_if_idle_when_pending(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    assert timer.restart_if_idle(99.0) is False
    engine.run()
    assert log == [1.0]


def test_restart_after_fired(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    engine.run()
    timer.start(1.0)
    engine.run()
    assert log == [1.0, 2.0]


def test_negative_delay_raises(engine):
    timer = Timer(engine, lambda: None)
    with pytest.raises(TimerError):
        timer.start(-0.1)


def test_remaining_time(engine):
    timer = Timer(engine, lambda: None)
    timer.start(10.0)
    engine.schedule(4.0, lambda: None)
    engine.step()
    assert timer.expiry - engine.now == pytest.approx(6.0)


def test_remaining_zero_when_not_pending(engine):
    timer = Timer(engine, lambda: None)
    assert not timer.is_pending and timer.expiry is None


def test_cancel_then_restart(engine):
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    timer.cancel()
    timer.start(2.0)
    engine.run()
    assert log == [2.0]


def test_rescheduled_timer_does_not_fire_at_original_expiry(engine):
    """The lazily-cancelled original event must not trigger the callback."""
    log = []
    timer = make_timer(engine, log)
    timer.start(1.0)
    timer.reschedule(5.0)
    engine.run(until=2.0)
    assert log == []
    engine.run()
    assert log == [5.0]


# ----------------------------------------------------------------------
# runtime timer audit
# ----------------------------------------------------------------------


class TestTimerAudit:
    def test_disabled_by_default(self, engine):
        assert engine.timer_audit is None
        timer = Timer(engine, lambda: None, name="t")
        timer.start(1.0)
        timer.cancel()
        engine.run()
        assert engine.timer_audit is None

    def test_enable_is_idempotent(self, engine):
        audit = engine.enable_timer_audit()
        assert engine.enable_timer_audit() is audit
        assert engine.timer_audit is audit

    def test_clean_lifecycle_has_no_violations(self, engine):
        audit = engine.enable_timer_audit()
        log = []
        timer = make_timer(engine, log)
        timer.start(5.0)
        timer.reschedule(2.0)
        other = Timer(engine, lambda: None, name="u")
        other.start(1.0)
        other.cancel()
        engine.run()
        assert log == [2.0]
        assert audit.verify() == []
        assert audit.pending_timers() == []
        assert audit.timers_seen == 2
        # t: arm, cancel+arm (reschedule), fire; u: arm, cancel.
        assert audit.transitions == 6

    def test_leak_when_event_cancelled_behind_timers_back(self, engine):
        audit = engine.enable_timer_audit()
        timer = Timer(engine, lambda: None, name="leaker")
        timer.start(5.0)
        timer._event.cancel()  # bypasses Timer.cancel(): the audit's leak
        engine.run()
        violations = audit.verify()
        assert [v.kind for v in violations] == ["leak"]
        assert violations[0].timer == "leaker"

    def test_double_arm_when_start_guard_bypassed(self, engine):
        audit = engine.enable_timer_audit()
        timer = Timer(engine, lambda: None, name="doubler")
        timer.start(5.0)
        timer._arm(3.0)  # bypasses the start() already-pending guard
        engine.run()
        kinds = [v.kind for v in audit.verify()]
        assert "double-arm" in kinds

    def test_unmatched_fire_on_manual_fire(self, engine):
        audit = engine.enable_timer_audit()
        log = []
        timer = make_timer(engine, log)
        timer.start(5.0)
        timer._fire()  # by hand: fires now, strands the scheduled event
        engine.run()
        kinds = [v.kind for v in audit.verify()]
        assert "unmatched-fire" in kinds

    def test_stopped_early_pending_timer_is_not_a_leak(self, engine):
        audit = engine.enable_timer_audit()
        timer = Timer(engine, lambda: None, name="pending")
        timer.start(50.0)
        engine.run(until=10.0)
        assert audit.verify() == []
        assert audit.pending_timers() == ["pending"]

    def test_verify_is_repeatable_and_ordered(self, engine):
        audit = engine.enable_timer_audit()
        first = Timer(engine, lambda: None, name="a")
        second = Timer(engine, lambda: None, name="b")
        first.start(5.0)
        second.start(5.0)
        first._event.cancel()
        second._event.cancel()
        engine.run()
        violations = audit.verify()
        assert [v.timer for v in violations] == ["a", "b"]  # first-seen order
        assert audit.verify() == violations
