"""Property-based tests for penalty arithmetic, held to the independent
RFC 2439 reference in ``tests/reference/rfc2439.py``."""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CISCO_DEFAULTS, DampingParams, UpdateKind
from repro.core.penalty import PenaltyState
from tests.reference.rfc2439 import DampedRoute, from_damping_params

params_strategy = st.builds(
    DampingParams,
    withdrawal_penalty=st.floats(min_value=0.0, max_value=5000.0),
    reannouncement_penalty=st.floats(min_value=0.0, max_value=5000.0),
    attribute_change_penalty=st.floats(min_value=0.0, max_value=5000.0),
    cutoff_threshold=st.floats(min_value=1000.0, max_value=10000.0),
    reuse_threshold=st.floats(min_value=10.0, max_value=999.0),
    half_life=st.floats(min_value=60.0, max_value=3600.0),
    max_hold_down=st.floats(min_value=60.0, max_value=7200.0),
)

kinds = st.sampled_from(
    [UpdateKind.WITHDRAWAL, UpdateKind.REANNOUNCEMENT, UpdateKind.ATTRIBUTE_CHANGE]
)

event_trains = st.lists(
    st.tuples(st.floats(min_value=0.001, max_value=600.0), kinds),
    min_size=1,
    max_size=40,
)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def drive(params, events):
    """Charge the same train on a PenaltyState and on the reference."""
    state = PenaltyState(params)
    route = DampedRoute(from_damping_params(params))
    now = 0.0
    for delta, kind in events:
        now += delta
        value = state.charge(now, kind)
        assert close(value, route.update(now, route.config.increment(kind.value)))
    return state, route, now


@given(params=params_strategy, penalty=st.floats(min_value=0.0, max_value=1e6),
       elapsed=st.floats(min_value=0.0, max_value=1e5))
def test_decay_never_increases(params, penalty, elapsed):
    decayed = params.decay(penalty, elapsed)
    assert close(decayed, from_damping_params(params).decayed(penalty, elapsed))
    assert decayed <= penalty


@given(params=params_strategy, penalty=st.floats(min_value=0.0, max_value=1e6),
       e1=st.floats(min_value=0.0, max_value=1e4),
       e2=st.floats(min_value=0.0, max_value=1e4))
def test_decay_composes(params, penalty, e1, e2):
    """Decaying in two steps lands where the reference's one step does."""
    composed = params.decay(params.decay(penalty, e1), e2)
    assert close(composed, from_damping_params(params).decayed(penalty, e1 + e2))


@given(params=params_strategy,
       penalty=st.floats(min_value=1000.0, max_value=1e6),
       target=st.floats(min_value=1.0, max_value=999.0))
def test_time_to_reach_inverts_decay(params, penalty, target):
    """``time_to_reach`` is the reference's time to decay to ``target``
    (its reuse time with ``target`` as the reuse threshold)."""
    elapsed = params.time_to_reach(penalty, target)
    reference = replace(from_damping_params(params), reuse_threshold=target)
    assert math.isclose(elapsed, reference.seconds_to_reuse(penalty), rel_tol=1e-9)
    assert math.isclose(reference.decayed(penalty, elapsed), target, rel_tol=1e-9)


@given(events=event_trains)
@settings(max_examples=60)
def test_penalty_never_negative_and_never_above_ceiling(events):
    state = PenaltyState(CISCO_DEFAULTS)
    now = 0.0
    for delta, kind in events:
        now += delta
        value = state.charge(now, kind)
        assert 0.0 <= value <= CISCO_DEFAULTS.penalty_ceiling + 1e-9


@given(events=event_trains)
@settings(max_examples=60)
def test_charging_more_never_reduces_current_value(events):
    """At each charge instant, the post-charge value is >= the decayed
    pre-charge value."""
    state = PenaltyState(CISCO_DEFAULTS)
    now = 0.0
    for delta, kind in events:
        now += delta
        before = state.value_at(now)
        after = state.charge(now, kind)
        assert after >= before - 1e-9


@given(params=params_strategy, events=event_trains,
       probe=st.floats(min_value=0.0, max_value=1e5))
@settings(max_examples=60)
def test_value_matches_sampled_curve(params, events, probe):
    """Every charge, the lazily decayed value and the curve reconstructed
    for the figure plots are the reference's penalty at the same instant."""
    state, route, now = drive(params, events)
    query = now + probe
    assert close(state.value_at(query), route.penalty(query))
    samples = state.sample_curve(query, query, 1.0)
    assert math.isclose(samples[0][1], route.penalty(query), rel_tol=1e-9, abs_tol=1e-6)


@given(params=params_strategy, penalty=st.floats(min_value=1.0, max_value=1e6))
def test_reuse_delay_bounded_by_hold_down_after_cap(params, penalty):
    """A capped penalty is reused within max hold-down, when the
    reference says so."""
    reference = from_damping_params(params)
    capped = min(penalty, params.penalty_ceiling)
    assert close(capped, min(penalty, reference.max_penalty))
    delay = params.reuse_delay(capped)
    assert math.isclose(delay, reference.seconds_to_reuse(capped), rel_tol=1e-9, abs_tol=1e-6)
    assert delay <= params.max_hold_down * (1 + 1e-9)


@given(params=params_strategy, events=event_trains)
@settings(max_examples=60)
def test_history_values_are_monotone_with_trajectory(params, events):
    """The history holds exactly the reference's positive charges, at
    the reference's values."""
    state, route, _ = drive(params, events)
    assert [time for time, _ in state.history] == [time for time, _ in route.charges]
    for (_, recorded), (_, value) in zip(state.history, route.charges):
        assert close(recorded, value)
