"""Property-based tests for the event engine and timers."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.events import TieDetector
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


# ----------------------------------------------------------------------
# one dispatch loop, one observer list
# ----------------------------------------------------------------------

_DELAYS = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 4.0])  # ties on purpose
_ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("spawn"), _DELAYS),
    st.just(("observe",)),
)
_SPECS = st.lists(
    st.tuples(_DELAYS, st.sampled_from(["r1", "r2", None]), _ACTIONS),
    min_size=1,
    max_size=25,
)
_ATTACHMENTS = st.sets(st.sampled_from(["ties", "watchdog", "recorder", "probe"]))


def _play(mode, specs, pre_cancel, attach, horizon):
    """Build one engine from ``specs``, drive it in ``mode`` and return
    everything the properties below compare."""
    engine = Engine()
    log, fired, dead, handles, late = [], [], set(), [], []
    detector = TieDetector(engine) if "ties" in attach else None
    watchdog = engine.enable_watchdog() if "watchdog" in attach else None
    if "recorder" in attach:
        engine.add_observer(lambda event: log.append(("seen", event.time, event.seq)))
    if "probe" in attach:

        class Probe:
            def before(self):
                log.append(("before",))

            def after(self, tag):
                log.append(("after", tag))

        engine.set_phase_probe(Probe())

    def cancel(index):
        handle = handles[index % len(handles)]
        handle.cancel()
        if all(handle.seq != seq for _, seq, _, _ in fired):
            dead.add(handle.seq)

    def schedule(delay, actor, action):
        def callback():
            fired.append((handle.time, handle.seq, actor, action[0]))
            log.append(("fire", handle.time, handle.seq))
            assert handle.seq not in dead, "a cancelled event fired"
            if action[0] == "cancel":
                cancel(action[1])
            elif action[0] == "spawn":
                schedule(action[1], actor, ("none",))
            elif action[0] == "observe":
                seen = []
                late.append((len(fired), seen))
                engine.add_observer(lambda event: seen.append(event.seq))
            assert engine.pending_count == len(handles) - len(fired) - len(dead)

        handle = engine.schedule(delay, callback, actor=actor, tag=action[0])
        handles.append(handle)

    for delay, actor, action in specs:
        schedule(delay, actor, action)
    for index in pre_cancel:
        cancel(index)
    if mode == "run":
        engine.run(until=horizon)
        engine.run()
    elif mode == "idle":
        engine.run_until_idle(max_time=1e9)
    else:
        while engine.step():
            assert engine.pending_count == len(handles) - len(fired) - len(dead)
    assert engine.pending_count == 0
    assert engine.events_executed == len(fired)
    return fired, log, late, detector, watchdog


@given(
    specs=_SPECS,
    pre_cancel=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    attach=_ATTACHMENTS,
    horizon=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=150, deadline=None)
def test_every_driver_and_every_observer_sees_the_same_dispatch(
    specs, pre_cancel, attach, horizon
):
    bare = _play("idle", specs, pre_cancel, frozenset(), horizon)[0]
    for mode in ("run", "idle", "step"):
        fired, log, late, detector, watchdog = _play(
            mode, specs, pre_cancel, attach, horizon
        )
        # Observers are passive and the three drivers share one loop.
        assert fired == bare
        order = [(time, seq) for time, seq, _, _ in fired]
        assert order == sorted(order)
        # Every fired event: observers first, then the probe brackets
        # the callback — exactly once each, in firing order.
        expected = []
        for time, seq, _, tag in fired:
            if "recorder" in attach:
                expected.append(("seen", time, seq))
            if "probe" in attach:
                expected.append(("before",))
            expected.append(("fire", time, seq))
            if "probe" in attach:
                expected.append(("after", tag))
        assert log == expected
        # An observer added from inside a callback sees the next event on.
        for position, seen in late:
            assert seen == [seq for _, seq, _, _ in fired[position:]]
        if detector is not None:
            anchors, ties = {}, []
            for time, seq, actor, _ in fired:
                if actor is None:
                    continue
                if (time, actor) in anchors:
                    ties.append((time, actor, anchors[(time, actor)], seq))
                else:
                    anchors[(time, actor)] = seq
            assert [
                (t.time, t.actor, t.first_seq, t.second_seq) for t in detector.ties
            ] == ties
        if watchdog is not None and fired:
            assert watchdog.events_at_instant == sum(
                1 for entry in fired if entry[0] == fired[-1][0]
            )
