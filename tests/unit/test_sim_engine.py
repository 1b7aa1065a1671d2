"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.errors import SimulationError, SimulationStalled
from repro.sim.engine import Engine, call_soon
from repro.sim.events import TieDetector


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_custom_start():
    assert Engine(start_time=10.0).now == 10.0


def test_schedule_and_run_single_event():
    engine = Engine()
    fired = []
    engine.schedule(5.0, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [5.0]
    assert engine.now == 5.0


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(3.0, lambda: order.append("c"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(2.0, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    engine = Engine()
    order = []
    for label in ("first", "second", "third"):
        engine.schedule(1.0, lambda lab=label: order.append(lab))
    engine.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time():
    engine = Engine()
    fired = []
    engine.schedule_at(7.5, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [7.5]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Engine().schedule(-1.0, lambda: None)


def test_non_finite_time_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_at(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(float("nan"), lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(1.0, lambda: fired.append("cancelled"))
    engine.schedule(2.0, lambda: fired.append("kept"))
    event.cancel()
    engine.run()
    assert fired == ["kept"]


def test_events_scheduled_during_run_are_executed():
    engine = Engine()
    fired = []

    def chain():
        fired.append(engine.now)
        if engine.now < 3.0:
            engine.schedule(1.0, chain)

    engine.schedule(1.0, chain)
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(10.0, lambda: fired.append(10))
    executed = engine.run(until=5.0)
    assert executed == 1
    assert fired == [1]
    assert engine.now == 5.0  # run() advances to the horizon
    engine.run()
    assert fired == [1, 10]


def test_run_until_idle_does_not_advance_clock_past_last_event():
    engine = Engine()
    engine.schedule(2.0, lambda: None)
    engine.run_until_idle(max_time=100.0)
    assert engine.now == 2.0


def test_run_until_idle_respects_max_time():
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(50.0, lambda: fired.append(50))
    engine.run_until_idle(max_time=10.0)
    assert fired == [1]
    assert engine.pending_count == 1


def test_run_before_fires_strictly_earlier_events_and_keeps_the_clock():
    engine = Engine()
    fired = []
    for time in (1.0, 5.0, 5.0, 7.0):
        engine.schedule_at(time, partial(fired.append, time))
    assert engine.run_before(5.0) == 1
    assert fired == [1.0]
    assert engine.now == 1.0  # not moved to the instant
    # Resuming is the drain that never paused: both 5.0 events, in order.
    engine.run_until_idle(max_time=100.0)
    assert fired == [1.0, 5.0, 5.0, 7.0]


def test_run_until_idle_event_budget_exceeded_raises():
    engine = Engine()

    def forever():
        engine.schedule(0.1, forever)

    engine.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        engine.run_until_idle(max_time=1e9, max_events=100)


def test_run_until_idle_draining_on_the_last_budgeted_event_is_not_a_stall():
    engine = Engine()
    for i in range(5):
        engine.schedule(i + 1.0, lambda: None)
    assert engine.run_until_idle(max_time=100.0, max_events=5) == 5
    assert engine.pending_count == 0


def test_run_until_idle_budget_spent_with_work_left_reports_it():
    engine = Engine()
    for i in range(6):
        engine.schedule(i + 1.0, lambda: None)
    with pytest.raises(SimulationStalled) as excinfo:
        engine.run_until_idle(max_time=100.0, max_events=5)
    assert excinfo.value.diagnostics.pending_count == 1
    # Work left beyond max_time is not a stall either.
    later = Engine()
    for i in range(6):
        later.schedule(i + 1.0, lambda: None)
    assert later.run_until_idle(max_time=5.0, max_events=5) == 5


def test_max_events_limits_run():
    engine = Engine()
    for i in range(10):
        engine.schedule(float(i + 1), lambda: None)
    executed = engine.run(max_events=4)
    assert executed == 4
    assert engine.pending_count == 6


def test_step_returns_false_on_empty_queue():
    assert Engine().step() is False


def test_step_executes_one_event():
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(2.0, lambda: fired.append(2))
    assert engine.step() is True
    assert fired == [1]


def test_pending_count_excludes_cancelled():
    engine = Engine()
    keep = engine.schedule(1.0, lambda: None)
    drop = engine.schedule(2.0, lambda: None)
    drop.cancel()
    del keep
    assert engine.pending_count == 1


def test_peek_next_time_skips_cancelled():
    engine = Engine()
    first = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    first.cancel()
    assert engine.peek_next_time() == 2.0


def test_peek_next_time_empty_queue():
    assert Engine().peek_next_time() is None


def test_run_is_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1.0, reenter)
    engine.run()
    assert len(errors) == 1


def test_events_executed_counter():
    engine = Engine()
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_executed == 5


def test_clear_drops_pending_events():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.clear()
    assert engine.pending_count == 0


def test_call_soon_runs_at_current_time():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    fired = []
    call_soon(engine, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [5.0]


def test_engine_with_live_and_cancelled_entries_survives_pickle():
    """Cancelled entries travel inside a snapshot's pickle."""
    engine = Engine()
    fired = []
    events = [
        engine.schedule(float(i % 4 + 1), partial(fired.append, i), tag="t")
        for i in range(12)
    ]
    for event in events[::3]:
        event.cancel()
    clone = pickle.loads(pickle.dumps((engine, fired)))
    engine.run()
    clone_engine, clone_fired = clone
    assert clone_engine.pending_count == 8
    clone_engine.run()
    assert clone_fired == fired
    assert not set(fired) & set(range(0, 12, 3))
    assert clone_engine.now == engine.now
    assert clone_engine.events_executed == engine.events_executed == 8


# ----------------------------------------------------------------------
# schedule-race (tie) detection
# ----------------------------------------------------------------------


def test_tie_detection_off_by_default():
    engine = Engine()
    assert engine.observers == ()
    engine.schedule_at(1.0, lambda: None, actor="r1", tag="deliver")
    engine.schedule_at(1.0, lambda: None, actor="r1", tag="deliver")
    assert engine.run() == 2


def test_same_instant_same_actor_records_tie():
    engine = Engine()
    detector = TieDetector(engine)
    engine.schedule_at(5.0, lambda: None, actor="r1", tag="deliver")
    engine.schedule_at(5.0, lambda: None, actor="r1", tag="mrai")
    engine.run()
    assert len(detector.ties) == 1
    tie = detector.ties[0]
    assert tie.time == 5.0
    assert tie.actor == "r1"
    assert tie.first_seq < tie.second_seq
    assert tie.tags == ("deliver", "mrai")


def test_same_instant_different_actors_is_not_a_tie():
    engine = Engine()
    detector = TieDetector(engine)
    engine.schedule_at(5.0, lambda: None, actor="r1")
    engine.schedule_at(5.0, lambda: None, actor="r2")
    engine.run()
    assert detector.ties == []


def test_same_actor_different_instants_is_not_a_tie():
    engine = Engine()
    detector = TieDetector(engine)
    engine.schedule_at(1.0, lambda: None, actor="r1")
    engine.schedule_at(2.0, lambda: None, actor="r1")
    engine.run()
    assert detector.ties == []


def test_unlabelled_events_never_tie():
    engine = Engine()
    detector = TieDetector(engine)
    engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(1.0, lambda: None)
    engine.run()
    assert detector.ties == []


def test_three_way_tie_records_one_tie_per_follower():
    engine = Engine()
    detector = TieDetector(engine)
    for tag in ("a", "b", "c"):
        engine.schedule_at(1.0, lambda: None, actor="r1", tag=tag)
    engine.run()
    assert len(detector.ties) == 2
    assert [t.tags for t in detector.ties] == [("a", "b"), ("a", "c")]


def test_tie_observer_and_clear():
    engine = Engine()
    detector = TieDetector(engine)
    assert engine.observers == (detector.observe,)
    seen = detector.ties
    engine.schedule_at(1.0, lambda: None, actor="r1")
    engine.schedule_at(1.0, lambda: None, actor="r1")
    engine.run(until=1.0)
    assert len(seen) == 1
    detector.clear()
    assert seen == [] and detector.ties is seen
    # The anchor of the cleared instant is forgotten too.
    engine.schedule_at(1.0, lambda: None, actor="r1")
    engine.run()
    assert detector.ties == []


def test_enable_tie_detection_mid_run():
    engine = Engine()
    engine.schedule_at(1.0, lambda: None, actor="r1")
    engine.schedule_at(1.0, lambda: None, actor="r1")
    engine.run()
    detector = TieDetector(engine)
    assert detector.ties == []
    engine.schedule_at(engine.now + 1.0, lambda: None, actor="r1")
    engine.schedule_at(engine.now + 1.0, lambda: None, actor="r1")
    engine.run()
    assert len(detector.ties) == 1


def test_detection_is_passive_identical_execution_order():
    def trace_run(detect: bool):
        order = []
        engine = Engine()
        if detect:
            TieDetector(engine)
        for i in range(5):
            engine.schedule_at(1.0, lambda i=i: order.append(i), actor="r1")
        engine.run()
        return order

    assert trace_run(False) == trace_run(True) == [0, 1, 2, 3, 4]


def test_timer_forwards_actor_and_tag():
    from repro.sim.timers import Timer

    engine = Engine()
    detector = TieDetector(engine)
    t1 = Timer(engine, lambda: None, name="a", actor="r1", tag="mrai")
    t2 = Timer(engine, lambda: None, name="b", actor="r1", tag="reuse")
    t1.start(3.0)
    t2.start(3.0)
    engine.run()
    assert len(detector.ties) == 1
    assert detector.ties[0].tags == ("mrai", "reuse")


# ----------------------------------------------------------------------
# lazy cancellation
# ----------------------------------------------------------------------


def test_cancelling_10k_mrai_style_timers_keeps_heap_bounded():
    """Timer churn (an MRAI re-arm cancels the previous event every time)
    leaves cancelled entries in the heap until they surface; they are
    never counted as pending, never fire, and are gone once the queue
    has drained."""
    engine = Engine()
    live = [engine.schedule(1_000.0, lambda: None) for _ in range(100)]
    for i in range(10_000):
        event = engine.schedule(30.0 + (i % 7), lambda: None, tag="mrai")
        event.cancel()
    assert engine.pending_count == 100
    assert engine.run() == 100
    assert engine.pending_count == 0
    assert engine.peek_next_time() is None
    assert all(not e.cancelled for e in live)


def test_pending_count_is_consistent_through_cancel_and_purge():
    engine = Engine()
    events = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
    events[3].cancel()
    events[7].cancel()
    events[7].cancel()  # double-cancel must not double-count
    assert engine.pending_count == 8
    assert engine.run(until=4.0) == 3
    assert engine.pending_count == 5
    assert engine.run() == 5


def test_cancel_after_firing_does_not_corrupt_bookkeeping():
    engine = Engine()
    fired = engine.schedule(1.0, lambda: None)
    pending = engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    fired.cancel()  # already executed; must not affect the queue count
    assert engine.pending_count == 1
    engine.run()
    assert engine.events_executed == 2
    del pending


def test_cancel_inside_running_callback_compacts_safely():
    """A cancellation storm triggered from inside a callback must not
    confuse the run loop: the dead entries are skipped, the survivor
    fires."""
    engine = Engine()
    doomed = [engine.schedule(50.0, lambda: None) for _ in range(200)]
    survivor_fired = []

    def cancel_everything() -> None:
        for event in doomed:
            event.cancel()

    engine.schedule(1.0, cancel_everything)
    engine.schedule(60.0, lambda: survivor_fired.append(engine.now))
    engine.run()
    assert survivor_fired == [60.0]
    assert engine.pending_count == 0
    assert engine.events_executed == 2


def test_clear_resets_cancellation_bookkeeping():
    engine = Engine()
    events = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
    events[0].cancel()
    engine.clear()
    assert engine.pending_count == 0
    # Cancelling a cleared event is a no-op, not a counter underflow.
    events[1].cancel()
    assert engine.pending_count == 0
    assert engine.run() == 0
