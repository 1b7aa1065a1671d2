"""Property-based tests for the RCN history filter and the intended model."""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.intended import IntendedBehaviorModel
from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS, DampingParams
from repro.core.rcn import RootCause, RootCauseHistory
from tests.reference.rfc2439 import from_damping_params, section3_prediction

causes = st.builds(
    RootCause,
    link=st.just(("o", "i")),
    status=st.sampled_from(["down", "up"]),
    seq=st.integers(min_value=0, max_value=20),
)

peers = st.sampled_from(["a", "b", "c"])


@given(sequence=st.lists(st.tuples(peers, causes), min_size=1, max_size=100))
def test_each_unique_cause_charges_exactly_once_per_peer(sequence):
    history = RootCauseHistory()
    charged = set()
    for peer, cause in sequence:
        if history.should_charge(peer, cause):
            assert (peer, cause.key) not in charged
            charged.add((peer, cause.key))
        else:
            assert (peer, cause.key) in charged
    assert history.charged_count == len(charged)
    assert history.charged_count + history.filtered_count == len(sequence)


@given(
    sequence=st.lists(causes, min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60)
def test_history_size_never_exceeds_capacity(sequence, capacity):
    history = RootCauseHistory(capacity=capacity)
    for cause in sequence:
        history.should_charge("peer", cause)
        assert history.peer_history_size("peer") <= capacity


@given(pulses=st.integers(min_value=0, max_value=30),
       interval=st.floats(min_value=10.0, max_value=600.0))
def test_intended_prediction_invariants(pulses, interval):
    model = IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=interval, tup=30.0)
    prediction = model.predict(pulses)
    assert prediction.pulses == pulses
    assert prediction.penalty_at_final >= 0.0
    assert prediction.penalty_at_final <= CISCO_DEFAULTS.penalty_ceiling + 1e-9
    assert prediction.reuse_delay >= 0.0
    assert prediction.reuse_delay <= CISCO_DEFAULTS.max_hold_down + 1e-6
    if prediction.suppressed:
        assert prediction.suppression_pulse is not None
        assert 1 <= prediction.suppression_pulse <= pulses
        assert prediction.convergence_time >= model.tup
    else:
        assert prediction.reuse_delay == 0.0
        assert prediction.convergence_time == (model.tup if pulses else 0.0)


@given(interval=st.floats(min_value=10.0, max_value=200.0))
def test_convergence_nondecreasing_past_suppression(interval):
    model = IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=interval, tup=30.0)
    critical = model.suppression_onset(max_pulses=20)
    if critical is None:
        return
    previous = 0.0
    for n in range(critical, critical + 10):
        value = model.predict(n).convergence_time
        assert value >= previous - 1e-9
        previous = value


damping_params = st.sampled_from([CISCO_DEFAULTS, JUNIPER_DEFAULTS]) | st.builds(
    DampingParams,
    withdrawal_penalty=st.floats(min_value=100.0, max_value=3000.0),
    reannouncement_penalty=st.sampled_from([0.0, 250.0, 1000.0]),
    cutoff_threshold=st.floats(min_value=1000.0, max_value=6000.0),
    half_life=st.floats(min_value=60.0, max_value=3600.0),
    max_hold_down=st.floats(min_value=60.0, max_value=7200.0),
)


@given(params=damping_params, pulses=st.integers(min_value=0, max_value=30),
       interval=st.floats(min_value=10.0, max_value=600.0))
def test_intended_prediction_matches_rfc2439_reference(params, pulses, interval):
    """Section 3's prediction is the reference router's, driven by the
    same regular pulse train."""
    reference = from_damping_params(params)

    def outcome(spacing):
        _, pulse, reuse, _ = section3_prediction(reference, pulses, spacing, 30.0)
        return pulse, reuse > 0

    # An event that lands on a threshold or on the reuse instant may go
    # either way under rounding; skip the trains where it matters.
    assume(outcome(interval * (1 - 1e-7)) == outcome(interval * (1 + 1e-7)))
    prediction = IntendedBehaviorModel(params, flap_interval=interval, tup=30.0).predict(pulses)
    penalty, pulse, reuse, convergence = section3_prediction(reference, pulses, interval, 30.0)
    assert math.isclose(prediction.penalty_at_final, penalty, rel_tol=1e-9, abs_tol=1e-9)
    assert prediction.suppression_pulse == pulse
    assert math.isclose(prediction.reuse_delay, reuse, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(prediction.convergence_time, convergence, rel_tol=1e-9)


@given(pulses=st.integers(min_value=1, max_value=15))
def test_juniper_penalty_at_least_cisco(pulses):
    """Juniper charges re-announcements too, so its penalty after any
    regular pulse train is >= Cisco's; both are the reference's."""
    penalties = []
    for params in (CISCO_DEFAULTS, JUNIPER_DEFAULTS):
        model = IntendedBehaviorModel(params, flap_interval=60.0, tup=0.0)
        penalty = model.predict(pulses).penalty_at_final
        expected, _, _, _ = section3_prediction(from_damping_params(params), pulses, 60.0, 0.0)
        assert math.isclose(penalty, expected, rel_tol=1e-9)
        penalties.append(penalty)
    cisco, juniper = penalties
    assert juniper >= cisco
