"""Unit tests for damping parameters (Table 1) and derived quantities."""

from __future__ import annotations

import math
import pickle
from dataclasses import fields, replace

import pytest

from repro.core.params import (
    CISCO_DEFAULTS,
    JUNIPER_DEFAULTS,
    VENDOR_PRESETS,
    DampingParams,
    UpdateKind,
)
from repro.errors import ConfigurationError
from tests.reference.rfc2439 import from_damping_params

CISCO_REFERENCE = from_damping_params(CISCO_DEFAULTS)


def test_cisco_defaults_match_table1():
    assert CISCO_DEFAULTS.withdrawal_penalty == 1000.0
    assert CISCO_DEFAULTS.reannouncement_penalty == 0.0
    assert CISCO_DEFAULTS.attribute_change_penalty == 500.0
    assert CISCO_DEFAULTS.cutoff_threshold == 2000.0
    assert CISCO_DEFAULTS.reuse_threshold == 750.0
    assert CISCO_DEFAULTS.half_life == 15 * 60
    assert CISCO_DEFAULTS.max_hold_down == 60 * 60


def test_juniper_defaults_match_table1():
    assert JUNIPER_DEFAULTS.reannouncement_penalty == 1000.0
    assert JUNIPER_DEFAULTS.cutoff_threshold == 3000.0
    assert JUNIPER_DEFAULTS.withdrawal_penalty == 1000.0
    assert JUNIPER_DEFAULTS.half_life == 15 * 60


def test_vendor_presets_registry():
    assert VENDOR_PRESETS["cisco"] is CISCO_DEFAULTS
    assert VENDOR_PRESETS["juniper"] is JUNIPER_DEFAULTS


def test_decay_constant_is_ln2_over_half_life():
    assert CISCO_DEFAULTS.decay_constant == pytest.approx(
        math.log(2) / (15 * 60)
    )


def test_decay_halves_after_half_life():
    assert CISCO_DEFAULTS.decay(1000.0, 15 * 60) == pytest.approx(500.0)


def test_decay_zero_elapsed_is_identity():
    assert CISCO_DEFAULTS.decay(1234.0, 0.0) == 1234.0


def test_decay_of_zero_penalty():
    assert CISCO_DEFAULTS.decay(0.0, 100.0) == 0.0


def test_decay_negative_elapsed_raises():
    with pytest.raises(ConfigurationError):
        CISCO_DEFAULTS.decay(100.0, -1.0)


def test_penalty_ceiling_enforces_max_hold_down():
    # ceiling = reuse * 2^(hold/half-life) = 750 * 2^4 = 12000
    assert CISCO_DEFAULTS.penalty_ceiling == pytest.approx(12000.0)
    # Decaying the ceiling for max_hold_down seconds lands on the reuse
    # threshold exactly.
    decayed = CISCO_DEFAULTS.decay(
        CISCO_DEFAULTS.penalty_ceiling, CISCO_DEFAULTS.max_hold_down
    )
    assert decayed == pytest.approx(CISCO_DEFAULTS.reuse_threshold)


def test_penalty_increments():
    assert CISCO_DEFAULTS.penalty_increment(UpdateKind.WITHDRAWAL) == 1000.0
    assert CISCO_DEFAULTS.penalty_increment(UpdateKind.REANNOUNCEMENT) == 0.0
    assert CISCO_DEFAULTS.penalty_increment(UpdateKind.ATTRIBUTE_CHANGE) == 500.0
    assert CISCO_DEFAULTS.penalty_increment(UpdateKind.DUPLICATE) == 0.0


def test_time_to_reach_inverts_decay():
    elapsed = CISCO_DEFAULTS.time_to_reach(3000.0, 750.0)
    assert CISCO_REFERENCE.decayed(3000.0, elapsed) == pytest.approx(750.0)
    # 3000 -> 750 is two half-lives
    assert elapsed == pytest.approx(CISCO_REFERENCE.seconds_to_reuse(3000.0))
    assert elapsed == pytest.approx(2 * 15 * 60)


def test_time_to_reach_already_below():
    assert CISCO_DEFAULTS.time_to_reach(500.0, 750.0) == 0.0
    assert CISCO_DEFAULTS.time_to_reach(750.0, 750.0) == 0.0


def test_reuse_delay_from_paper_formula():
    # r = (1/lambda) ln(p / P_reuse), which the reference writes as
    # half_life · log2(p / P_reuse)
    p = 2867.0
    assert CISCO_DEFAULTS.reuse_delay(p) == pytest.approx(CISCO_REFERENCE.seconds_to_reuse(p))


def test_invalid_half_life():
    with pytest.raises(ConfigurationError):
        DampingParams(half_life=0.0)


def test_invalid_thresholds():
    with pytest.raises(ConfigurationError):
        DampingParams(cutoff_threshold=500.0, reuse_threshold=750.0)
    with pytest.raises(ConfigurationError):
        DampingParams(reuse_threshold=0.0)


def test_negative_penalty_rejected():
    with pytest.raises(ConfigurationError):
        DampingParams(withdrawal_penalty=-1.0)


def test_invalid_max_hold_down():
    with pytest.raises(ConfigurationError):
        DampingParams(max_hold_down=0.0)


def test_replace_creates_validated_copy():
    custom = replace(CISCO_DEFAULTS, cutoff_threshold=2500.0)
    assert custom.cutoff_threshold == 2500.0
    assert custom.withdrawal_penalty == CISCO_DEFAULTS.withdrawal_penalty
    with pytest.raises(ConfigurationError):
        replace(CISCO_DEFAULTS, cutoff_threshold=100.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", [spec.name for spec in fields(DampingParams)])
def test_non_finite_field_rejected_by_name(field, value):
    with pytest.raises(ConfigurationError, match=rf"^DampingParams\.{field} must be a finite number"):
        DampingParams(**{field: value})


def test_describe_round_trip():
    described = CISCO_DEFAULTS.describe()
    assert described["half_life_minutes"] == 15.0
    assert described["cutoff_threshold"] == 2000.0
    assert described["max_hold_down_minutes"] == 60.0


def test_params_are_immutable():
    with pytest.raises(AttributeError):
        CISCO_DEFAULTS.cutoff_threshold = 1.0  # type: ignore[misc]


def test_derived_values_are_the_documented_expressions_bit_for_bit():
    params = DampingParams(half_life=600.0, max_hold_down=2700.0)
    assert params.decay_constant == math.log(2.0) / 600.0
    assert params.penalty_ceiling == 750.0 * math.pow(2.0, 2700.0 / 600.0)


def test_replace_gets_its_own_derived_values():
    base = DampingParams()
    base_lambda, base_ceiling = base.decay_constant, base.penalty_ceiling
    faster = replace(base, half_life=300.0)
    assert faster.decay_constant == math.log(2.0) / 300.0
    assert faster.penalty_ceiling == 750.0 * math.pow(2.0, 3600.0 / 300.0)
    assert (base.decay_constant, base.penalty_ceiling) == (base_lambda, base_ceiling)


def test_cached_values_leave_equality_hash_and_pickle_alone():
    cold, warm = DampingParams(), DampingParams()
    warm.decay_constant, warm.penalty_ceiling  # fills both caches
    assert cold == warm and hash(cold) == hash(warm)
    for original in (cold, warm):
        clone = pickle.loads(pickle.dumps(original))
        assert clone == CISCO_DEFAULTS and hash(clone) == hash(CISCO_DEFAULTS)
        assert clone.decay_constant == CISCO_DEFAULTS.decay_constant
        assert clone.penalty_ceiling == CISCO_DEFAULTS.penalty_ceiling
