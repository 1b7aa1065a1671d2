"""The retired timer-lifecycle (TIM) rules, run against the checks that
retired them.

The static TIM rules are gone (docs/STATIC_ANALYSIS.md, "Retired rules").
Their fixtures are executed here on an engine with the runtime
:class:`~repro.sim.timers.TimerAudit` attached: a double arm is refused
by :meth:`~repro.sim.timers.Timer.start` itself, and a compliant
lifecycle — stored, returned, cancelled directly or through a helper,
abandoned by an exception — leaves the audit with no violation.
"""

from __future__ import annotations

import pytest

from repro.errors import TimerError
from repro.sim.engine import Engine
from repro.sim.timers import Timer

DELAY = 5.0


def audited():
    """An engine with the timer audit attached, and a fire log."""
    engine = Engine()
    return engine, engine.enable_timer_audit(), []


def new_timer(engine, fired):
    return Timer(engine, lambda: fired.append(engine.now), name="x", actor="r", tag="reuse")


# ----------------------------------------------------------------------
# TIM001 — leaked armed handle
# ----------------------------------------------------------------------


class TestTIM001:
    def test_quiet_when_stored_returned_or_cancelled(self):
        engine, audit, fired = audited()

        class Owner:
            def stored(self, engine, cb):
                t = Timer(engine, cb, name="stored")
                t.start(DELAY)
                self.timer = t

        def returned(engine, cb):
            t = Timer(engine, cb, name="returned")
            t.start(DELAY)
            return t

        def cancelled(engine, cb):
            t = Timer(engine, cb, name="cancelled")
            t.start(DELAY)
            t.cancel()

        Owner().stored(engine, lambda: fired.append("stored"))
        returned(engine, lambda: fired.append("returned"))
        cancelled(engine, lambda: fired.append("cancelled"))
        assert audit.pending_timers() == ["stored", "returned"]
        engine.run()
        assert fired == ["stored", "returned"]
        assert audit.verify() == []

    def test_quiet_when_cancelled_by_intra_file_helper(self):
        engine, audit, fired = audited()

        def disarm(timer):
            timer.cancel()

        def uses_helper(engine):
            t = new_timer(engine, fired)
            t.start(DELAY)
            disarm(t)

        uses_helper(engine)
        engine.run()
        assert fired == []
        assert audit.pending_timers() == []
        assert audit.verify() == []

    def test_exception_paths_are_excused(self):
        """A handle abandoned by a raise is still armed with a live event:
        pending, not leaked, and it fires when the engine runs."""
        engine, audit, fired = audited()

        def aborts(engine):
            t = new_timer(engine, fired)
            t.start(DELAY)
            raise RuntimeError("bail")

        with pytest.raises(RuntimeError):
            aborts(engine)
        assert audit.pending_timers() == ["x"]
        assert audit.verify() == []
        engine.run()
        assert fired == [DELAY]
        assert audit.verify() == []


# ----------------------------------------------------------------------
# TIM002 — double arm
# ----------------------------------------------------------------------


class TestTIM002:
    def test_fires_on_start_while_pending(self):
        engine, audit, fired = audited()

        def double(engine):
            t = new_timer(engine, fired)
            t.start(DELAY)
            t.start(DELAY)
            return t

        with pytest.raises(TimerError, match="already pending"):
            double(engine)
        engine.run()
        assert fired == [DELAY]  # the first arming stands
        assert audit.verify() == []

    def test_fires_when_loop_can_rearm(self):
        engine, audit, fired = audited()

        def loops(engine, rounds):
            t = new_timer(engine, fired)
            for _ in rounds:
                t.start(DELAY)
            return t

        loops(engine, range(1))
        with pytest.raises(TimerError, match="already pending"):
            loops(engine, range(2))
        engine.run()
        assert fired == [DELAY, DELAY]
        assert audit.verify() == []

    def test_quiet_on_cancel_between_and_on_reschedule(self):
        engine, audit, fired = audited()

        def restart(engine):
            t = new_timer(engine, fired)
            t.start(DELAY)
            t.cancel()
            t.reschedule(DELAY)
            return t

        def rearm_loop(engine, rounds):
            t = new_timer(engine, fired)
            for _ in rounds:
                t.reschedule(DELAY)
            return t

        restart(engine)
        rearm_loop(engine, range(3))
        engine.run()
        assert fired == [DELAY, DELAY]  # one fire per handle
        assert audit.verify() == []

    def test_quiet_on_exclusive_branches(self):
        engine, audit, fired = audited()

        def branchy(engine, fast):
            t = new_timer(engine, fired)
            if fast:
                t.start(DELAY)
            else:
                t.start(2 * DELAY)
            return t

        branchy(engine, True)
        branchy(engine, False)
        engine.run()
        assert fired == [DELAY, 2 * DELAY]
        assert audit.verify() == []
