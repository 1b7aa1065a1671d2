"""Unit tests for lazy penalty bookkeeping."""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS, UpdateKind
from repro.core.penalty import PenaltyState
from repro.errors import SimulationError


@pytest.fixture
def state():
    return PenaltyState(CISCO_DEFAULTS)


def test_initial_value_zero(state):
    assert state.value_at(0.0) == 0.0
    assert state.value_at(100.0) == 0.0


def test_charge_withdrawal(state):
    assert state.charge(0.0, UpdateKind.WITHDRAWAL) == 1000.0


def test_charge_sequence_decays_between_events(state):
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    value = state.charge(CISCO_DEFAULTS.half_life, UpdateKind.WITHDRAWAL)
    assert value == pytest.approx(1500.0)


def test_paper_penalty_recurrence(state):
    """p(k) = p(k-1) e^{-lambda w} + f(k): three withdrawals 120s apart."""
    params = CISCO_DEFAULTS
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    state.charge(120.0, UpdateKind.WITHDRAWAL)
    value = state.charge(240.0, UpdateKind.WITHDRAWAL)
    expected = (
        1000.0 * params.decay(1.0, 240.0)
        + 1000.0 * params.decay(1.0, 120.0)
        + 1000.0
    )
    assert value == pytest.approx(expected)
    assert value > params.cutoff_threshold  # 3rd flap triggers suppression


def test_two_withdrawals_stay_under_cutoff(state):
    """The paper: n=1 or 2 pulses do not trigger suppression at the ISP."""
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    value = state.charge(120.0, UpdateKind.WITHDRAWAL)
    assert value < CISCO_DEFAULTS.cutoff_threshold


def test_reannouncement_adds_nothing_with_cisco(state):
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    value = state.charge(60.0, UpdateKind.REANNOUNCEMENT)
    assert value == pytest.approx(CISCO_DEFAULTS.decay(1000.0, 60.0))


def test_duplicate_adds_nothing(state):
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    before = state.value_at(10.0)
    after = state.charge(10.0, UpdateKind.DUPLICATE)
    assert after == pytest.approx(before)


def test_ceiling_caps_penalty(state):
    for i in range(30):
        state.charge(float(i), UpdateKind.WITHDRAWAL)
    assert state.value_at(30.0) <= CISCO_DEFAULTS.penalty_ceiling


def test_query_before_stamp_raises(state):
    state.charge(100.0, UpdateKind.WITHDRAWAL)
    with pytest.raises(SimulationError):
        state.value_at(50.0)


def test_negative_increment_raises(state):
    with pytest.raises(SimulationError):
        state.add(0.0, -5.0)


def test_touch_reanchors_without_charging(state):
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    touched = state.touch(CISCO_DEFAULTS.half_life)
    assert touched == pytest.approx(500.0)
    assert state.value_at(CISCO_DEFAULTS.half_life) == pytest.approx(500.0)
    # History records only charges, not touches.
    assert len(state.history) == 1


def test_reset(state):
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    state.reset(10.0)
    assert state.value_at(10.0) == 0.0


def test_exceeds_cutoff_and_below_reuse(state):
    state.add(0.0, 2500.0)
    assert state.value_at(0.0) > CISCO_DEFAULTS.cutoff_threshold
    # After enough decay the value passes below reuse.
    delay = CISCO_DEFAULTS.reuse_delay(2500.0)
    assert state.value_at(delay + 1.0) < CISCO_DEFAULTS.reuse_threshold


def test_reuse_delay_decreases_over_time(state):
    state.add(0.0, 3000.0)
    assert state.reuse_delay(0.0) > state.reuse_delay(500.0) > 0.0


def test_history_records_charge_values(state):
    state.charge(0.0, UpdateKind.WITHDRAWAL)
    state.charge(60.0, UpdateKind.ATTRIBUTE_CHANGE)
    assert [t for t, _ in state.history] == [0.0, 60.0]
    assert state.history[1][1] == pytest.approx(
        CISCO_DEFAULTS.decay(1000.0, 60.0) + 500.0
    )


def test_zero_increment_not_recorded_in_history(state):
    state.charge(0.0, UpdateKind.REANNOUNCEMENT)  # +0 with Cisco
    assert state.history == []


def test_sample_curve_matches_analytic_decay(state):
    state.add(0.0, 1000.0)
    samples = dict(state.sample_curve(0.0, 900.0, 450.0))
    assert samples[0.0] == pytest.approx(1000.0)
    assert samples[450.0] == pytest.approx(CISCO_DEFAULTS.decay(1000.0, 450.0))
    assert samples[900.0] == pytest.approx(500.0)


def test_sample_curve_zero_before_first_charge(state):
    state.add(100.0, 1000.0)
    samples = dict(state.sample_curve(0.0, 100.0, 50.0))
    assert samples[0.0] == 0.0
    assert samples[50.0] == 0.0
    assert samples[100.0] == pytest.approx(1000.0)


def test_sample_curve_bad_step_raises(state):
    with pytest.raises(SimulationError):
        state.sample_curve(0.0, 10.0, 0.0)
