"""Property-based tests for penalty arithmetic (RFC 2439 invariants)."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CISCO_DEFAULTS, DampingParams, UpdateKind
from repro.core.penalty import PenaltyState

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


@given(params=params_strategy, penalty=st.floats(min_value=0.0, max_value=1e6),
       elapsed=st.floats(min_value=0.0, max_value=1e5))
def test_decay_never_increases(params, penalty, elapsed):
    assert params.decay(penalty, elapsed) <= penalty + 1e-9


@given(params=params_strategy, penalty=st.floats(min_value=0.0, max_value=1e6),
       e1=st.floats(min_value=0.0, max_value=1e4),
       e2=st.floats(min_value=0.0, max_value=1e4))
def test_decay_composes(params, penalty, e1, e2):
    """decay(p, a+b) == decay(decay(p, a), b)."""
    direct = params.decay(penalty, e1 + e2)
    composed = params.decay(params.decay(penalty, e1), e2)
    assert math.isclose(direct, composed, rel_tol=1e-9, abs_tol=1e-9)


@given(params=params_strategy,
       penalty=st.floats(min_value=1000.0, max_value=1e6),
       target=st.floats(min_value=1.0, max_value=999.0))
def test_time_to_reach_inverts_decay(params, penalty, target):
    elapsed = params.time_to_reach(penalty, target)
    if penalty <= target:
        assert elapsed == 0.0
    else:
        assert math.isclose(params.decay(penalty, elapsed), target, rel_tol=1e-6)


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


@given(events=event_trains, probe=st.floats(min_value=0.0, max_value=1e5))
@settings(max_examples=60)
def test_value_matches_sampled_curve(events, probe):
    """The lazily-decayed value agrees with the reconstruction used for
    figure plotting."""
    state = PenaltyState(CISCO_DEFAULTS)
    now = 0.0
    for delta, kind in events:
        now += delta
        state.charge(now, kind)
    query = now + probe
    samples = state.sample_curve(query, query, 1.0)
    assert math.isclose(
        samples[0][1], state.value_at(query), rel_tol=1e-9, abs_tol=1e-6
    )


@given(params=params_strategy, penalty=st.floats(min_value=1.0, max_value=1e6))
def test_reuse_delay_bounded_by_hold_down_after_cap(params, penalty):
    capped = min(penalty, params.penalty_ceiling)
    assert params.reuse_delay(capped) <= params.max_hold_down + 1e-6


@given(events=event_trains)
@settings(max_examples=60)
def test_history_values_are_monotone_with_trajectory(events):
    """Every recorded history point equals the value at that instant.

    The trajectory is recomputed here from RFC 2439 directly —
    ``p <- min(p * 2^(-dt/half_life) + increment,
    reuse * 2^(max_hold_down/half_life))`` — without ``params.decay`` or
    ``penalty_ceiling``, and the history must hold exactly the charges
    with a positive increment.
    """
    params = CISCO_DEFAULTS
    increments = {
        UpdateKind.WITHDRAWAL: params.withdrawal_penalty,
        UpdateKind.REANNOUNCEMENT: params.reannouncement_penalty,
        UpdateKind.ATTRIBUTE_CHANGE: params.attribute_change_penalty,
    }
    ceiling = params.reuse_threshold * 2.0 ** (params.max_hold_down / params.half_life)
    state = PenaltyState(params)
    now = last = penalty = 0.0
    expected = []
    for delta, kind in events:
        now += delta
        state.charge(now, kind)
        penalty = min(
            penalty * 2.0 ** (-(now - last) / params.half_life) + increments[kind],
            ceiling,
        )
        last = now
        if increments[kind] > 0:
            expected.append((now, penalty))
    assert [time for time, _ in state.history] == [time for time, _ in expected]
    for (_, recorded), (_, value) in zip(state.history, expected):
        assert math.isclose(recorded, value, rel_tol=1e-9)
