"""Unit tests for the Section 3 intended-behaviour model."""

from __future__ import annotations

import pytest

from repro.core.intended import IntendedBehaviorModel, regular_pulse_train
from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS
from repro.errors import ConfigurationError
from tests.reference.rfc2439 import from_damping_params, section3_prediction


@pytest.fixture
def model():
    return IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=60.0, tup=30.0)


def test_pulse_events_structure():
    assert regular_pulse_train(2, 60.0) == (
        (0.0, "down"),
        (60.0, "up"),
        (120.0, "down"),
        (180.0, "up"),
    )


def test_pulse_events_zero():
    assert regular_pulse_train(0, 60.0) == ()


def test_pulse_events_validation():
    for pulses, interval in [(-1, 60.0), (1, 0.0), (1, float("nan")), (1, float("inf"))]:
        with pytest.raises(ConfigurationError):
            regular_pulse_train(pulses, interval)


def test_no_suppression_for_one_or_two_pulses(model):
    """Paper: 'when the number of pulses n = 1 or 2, route suppression is
    not triggered and the convergence time is the same as no damping'."""
    for n in (1, 2):
        prediction = model.predict(n)
        assert not prediction.suppressed
        assert prediction.convergence_time == model.tup
        assert prediction.suppression_pulse is None


def test_suppression_from_third_pulse(model):
    """Paper: 'when n >= 3, route suppression is triggered'."""
    prediction = model.predict(3)
    assert prediction.suppressed
    assert prediction.suppression_pulse == 3
    assert prediction.convergence_time > model.tup


def test_penalty_after_pulses_matches_recurrence(model):
    # Withdrawals at 0, 120, 240; final announcement at 300 adds 0 (Cisco).
    reference = from_damping_params(CISCO_DEFAULTS)
    expected = sum(reference.decayed(1000.0, age) for age in (300.0, 180.0, 60.0))
    assert model.predict(3).penalty_at_final == pytest.approx(expected)


def test_reuse_delay_formula(model):
    prediction = model.predict(5)
    penalty, pulse, reuse, convergence = section3_prediction(
        from_damping_params(CISCO_DEFAULTS), 5, 60.0, model.tup
    )
    assert prediction.penalty_at_final == pytest.approx(penalty)
    assert prediction.suppression_pulse == pulse == 3
    assert prediction.reuse_delay == pytest.approx(reuse)
    assert prediction.convergence_time == pytest.approx(convergence)


def test_convergence_monotone_in_pulses_once_suppressed(model):
    previous = 0.0
    for n in range(3, 12):
        value = model.predict(n).convergence_time
        assert value >= previous
        previous = value


def test_convergence_bounded_by_max_hold_down(model):
    prediction = model.predict(60)
    assert prediction.reuse_delay <= CISCO_DEFAULTS.max_hold_down + 1e-6


def test_zero_pulses(model):
    prediction = model.predict(0)
    assert prediction.convergence_time == 0.0
    assert not prediction.suppressed


def test_suppression_onset_cisco(model):
    assert model.suppression_onset() == 3


def test_juniper_model_differs():
    """Juniper charges re-announcements too but cuts off at 3000."""
    juniper = IntendedBehaviorModel(JUNIPER_DEFAULTS, flap_interval=60.0, tup=30.0)
    # Pulse 1: 1000 (down) + 1000 (up) = ~2000 < 3000 -> not suppressed.
    assert not juniper.predict(1).suppressed
    # Pulse 2 pushes past 3000.
    assert juniper.predict(2).suppressed


def test_longer_interval_delays_suppression():
    # With 14-minute gaps between withdrawals, suppression needs more
    # than three pulses (the penalty partially decays between flaps).
    medium = IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=420.0, tup=30.0)
    assert not medium.predict(3).suppressed
    assert medium.suppression_onset() > 3
    # With 20-minute gaps the geometric sum never reaches the cutoff:
    # suppression is never triggered at all.
    slow = IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=600.0, tup=30.0)
    assert slow.suppression_onset() is None


def test_trajectory_tracks_suppression_flag(model):
    trajectory = model.penalty_trajectory(regular_pulse_train(4, 60.0))
    flags = [s for _, _, s in trajectory]
    # Not suppressed for the first two pulses (4 events), suppressed after.
    assert flags[:4] == [False, False, False, False]
    assert flags[4] is True


def test_trajectory_reuse_resets_flag(model):
    """A long quiet gap lets the penalty decay below reuse; a later flap
    starts unsuppressed."""
    events = [
        (0.0, "down"),
        (120.0, "down"),
        (240.0, "down"),  # suppressed here
        (240.0 + 6 * 3600.0, "down"),  # long gap
    ]
    trajectory = model.penalty_trajectory(events)
    assert trajectory[2][2] is True
    assert trajectory[3][2] is False


def test_model_validation():
    with pytest.raises(ConfigurationError):
        IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=0.0)
    with pytest.raises(ConfigurationError):
        IntendedBehaviorModel(CISCO_DEFAULTS, tup=-1.0)
