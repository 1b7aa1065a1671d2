"""Property-based tests for the event engine and timers."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.timers import Timer

delays = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50
)


@given(delays=delays)
def test_events_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=delays)
def test_clock_equals_last_event_after_drain(delays):
    engine = Engine()
    for delay in delays:
        engine.schedule(delay, lambda: None)
    engine.run_until_idle(max_time=1e9)
    assert engine.now == max(delays)
    assert engine.pending_count == 0


@given(delays=delays, cancel_mask=st.lists(st.booleans(), min_size=1, max_size=50))
def test_cancelled_subset_never_fires(delays, cancel_mask):
    engine = Engine()
    fired = []
    events = []
    for i, delay in enumerate(delays):
        events.append(engine.schedule(delay, lambda i=i: fired.append(i)))
    cancelled = set()
    for i, event in enumerate(events):
        if cancel_mask[i % len(cancel_mask)]:
            event.cancel()
            cancelled.add(i)
    engine.run()
    assert set(fired).isdisjoint(cancelled)
    assert set(fired) | cancelled == set(range(len(delays)))


@given(
    reschedules=st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=10
    )
)
@settings(max_examples=50)
def test_timer_fires_exactly_once_at_final_schedule(reschedules):
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    for delay in reschedules:
        timer.reschedule(delay)
    engine.run()
    assert fired == [reschedules[-1]]


@given(delays=delays, horizon=st.floats(min_value=0.0, max_value=1000.0))
def test_run_until_executes_exactly_events_within_horizon(delays, horizon):
    engine = Engine()
    executed = engine_count = 0
    for delay in delays:
        engine.schedule(delay, lambda: None)
    executed = engine.run(until=horizon)
    expected = sum(1 for d in delays if d <= horizon)
    assert executed == expected
    del engine_count


class _NoopProbe:
    def before(self) -> None:
        pass

    def after(self, tag) -> None:
        pass


_ATTACH_CLEAR = {
    "ties": lambda engine: engine.enable_tie_detection(),
    "hook": lambda engine: engine.set_event_hook(lambda event: None),
    "unhook": lambda engine: engine.set_event_hook(None),
    "probe": lambda engine: engine.set_phase_probe(_NoopProbe()),
    "unprobe": lambda engine: engine.set_phase_probe(None),
    "watchdog": lambda engine: engine.enable_watchdog(),
}


@given(
    delays=delays,
    calls=st.lists(st.sampled_from(sorted(_ATTACH_CLEAR)), max_size=12),
)
def test_instrumented_flag_tracks_the_observer_slots(delays, calls):
    def executed_order(engine):
        fired = []
        for i, delay in enumerate(delays):
            engine.schedule(delay, lambda i=i: fired.append(i))
        engine.run()
        return fired

    engine = Engine()
    for call in calls:
        _ATTACH_CLEAR[call](engine)
        assert engine._instrumented == any(
            (
                engine.tie_detection_enabled,
                engine._event_hook is not None,
                engine.watchdog is not None,
                engine._phase_probe is not None,
            )
        )
    # Observers are passive: whatever is attached, dispatch order is the
    # bare engine's.
    assert executed_order(engine) == executed_order(Engine())
