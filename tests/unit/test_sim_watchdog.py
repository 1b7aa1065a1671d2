"""Unit tests for the engine watchdog and stall diagnostics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationStalled
from repro.sim.engine import Engine
from repro.sim.watchdog import Watchdog, stall_diagnostics


def _wedge(engine: Engine) -> None:
    """A zero-delay self-rescheduling event: the classic frozen clock."""

    def spin() -> None:
        engine.schedule_at(engine.now, spin, actor="wedge", tag="spin")

    engine.schedule_at(1.0, spin, actor="wedge", tag="spin")


def test_watchdog_rejects_nonpositive_threshold(engine):
    with pytest.raises(ConfigurationError):
        Watchdog(engine, max_events_per_instant=0)
    with pytest.raises(ConfigurationError):
        engine.enable_watchdog(0)


def test_watchdog_trips_on_frozen_clock():
    engine = Engine()
    engine.enable_watchdog(max_events_per_instant=100)
    _wedge(engine)
    with pytest.raises(SimulationStalled) as excinfo:
        engine.run_until_idle(max_time=10.0)
    assert engine.now == pytest.approx(1.0)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics is not None
    assert diagnostics.events_at_instant == 101
    assert diagnostics.now == pytest.approx(1.0)
    # The wedge trips before re-arming itself, so the queue sample can
    # be empty — the culprit field still names the spinning event.
    assert diagnostics.culprit == ("wedge", "spin")
    assert "wedge" in str(excinfo.value)


def test_watchdog_reports_pending_timer_inventory():
    from repro.sim.timers import Timer

    engine = Engine()
    engine.enable_timer_audit()
    engine.enable_watchdog(max_events_per_instant=50)
    timer = Timer(engine, lambda: None, name="reuse:r1:p0", actor="r1", tag="reuse")
    timer.start(500.0)
    _wedge(engine)
    with pytest.raises(SimulationStalled) as excinfo:
        engine.run_until_idle(max_time=10.0)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics.pending_timers is not None
    assert any("reuse:r1:p0" in label for label in diagnostics.pending_timers)
    assert "reuse:r1:p0" in diagnostics.describe()


def test_watchdog_tolerates_bursts_below_threshold():
    engine = Engine()
    engine.enable_watchdog(max_events_per_instant=100)
    fired = []
    for index in range(90):
        engine.schedule_at(2.0, lambda i=index: fired.append(i), actor="burst")
    engine.run_until_idle(max_time=10.0)
    assert len(fired) == 90


def test_watchdog_resets_count_when_clock_advances():
    engine = Engine()
    engine.enable_watchdog(max_events_per_instant=10)
    fired = []
    # 8 events at each of many distinct instants: never trips.
    for step in range(20):
        for _ in range(8):
            engine.schedule_at(1.0 + step, lambda: fired.append(1), actor="ok")
    engine.run_until_idle(max_time=100.0)
    assert len(fired) == 160


def test_stall_diagnostics_without_audit_says_so():
    engine = Engine()
    engine.schedule_at(5.0, lambda: None, actor="a", tag="t")
    diagnostics = stall_diagnostics(engine)
    assert diagnostics.pending_timers is None
    assert "no timer audit attached" in diagnostics.describe()
    assert diagnostics.pending_count == 1


def test_enable_watchdog_is_idempotent():
    engine = Engine()
    first = engine.enable_watchdog()
    assert engine.enable_watchdog() is first
    assert engine.watchdog is first
