"""Unit tests for figure-driver internals."""

from __future__ import annotations

import pytest

from repro.core.intended import IntendedBehaviorModel
from repro.core.params import CISCO_DEFAULTS
from repro.core.damping import SuppressionRecord, charging_only_reuse_time
from repro.experiments.fig7 import _count_upward_crossings
from repro.experiments.base import SweepSeries
from repro.experiments.fig8_9 import calculation_series, critical_pulse_count
from repro.experiments.parallel import PointOutcome
from tests.reference.rfc2439 import from_damping_params


class TestCountUpwardCrossings:
    def test_single_crossing(self):
        history = [(0.0, 1000.0), (10.0, 2500.0)]
        assert _count_upward_crossings(history, 2000.0) == 1

    def test_no_crossing(self):
        history = [(0.0, 500.0), (10.0, 1500.0)]
        assert _count_upward_crossings(history, 2000.0) == 0

    def test_multiple_crossings_require_dropping_below(self):
        # up, stays up (no second count), down, up again (second count).
        history = [
            (0.0, 2500.0),
            (10.0, 2600.0),
            (20.0, 1000.0),
            (30.0, 2500.0),
        ]
        assert _count_upward_crossings(history, 2000.0) == 2

    def test_empty_history(self):
        assert _count_upward_crossings([], 2000.0) == 0


class TestFirstReuseEstimate:
    """F7's charging-only reuse estimate."""

    def test_estimate_uses_starting_penalty(self):
        record = SuppressionRecord(
            peer="p", prefix="d", started=100.0, penalty_at_start=3000.0
        )
        expected = 100.0 + from_damping_params(CISCO_DEFAULTS).seconds_to_reuse(3000.0)
        assert charging_only_reuse_time(record, CISCO_DEFAULTS) == pytest.approx(expected)


class TestCalculationSeries:
    def test_matches_model_predictions(self):
        tup = 42.0
        series = dict(calculation_series([0, 1, 3, 5], tup))
        model = IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=60.0, tup=tup)
        for n in (0, 1, 3, 5):
            assert series[n] == pytest.approx(model.predict(n).convergence_time)

    def test_no_suppression_region_equals_tup(self):
        series = dict(calculation_series([1, 2], 10.0))
        assert series[1] == pytest.approx(10.0)
        assert series[2] == pytest.approx(10.0)


def _mesh_sweeps(muffled_at):
    """A hand-built F8 grid: the ISP reuses noisily at every n >= 1, and
    the full-damping mesh is muffled exactly at the counts ``muffled_at``
    maps to ``True``."""
    points = [
        PointOutcome(
            pulses=n,
            convergence_time=100.0,
            message_count=0,
            suppressions=0,
            peak_damped_links=0,
            secondary_charges=0,
            warmup_convergence=0.0,
            isp_reuse=15.0 if n else None,
            last_other_noisy_reuse=None if muffled else 90.0,
            digest="",
        )
        for n, muffled in muffled_at.items()
    ]
    return {"full_damping_mesh": SweepSeries("mesh", points)}


class TestCriticalPulseCount:
    """``Nh`` is the smallest n >= 1 from which every mesh point is muffled."""

    def test_muffled_from_five(self):
        sweeps = _mesh_sweeps({n: n >= 5 for n in range(11)})
        assert critical_pulse_count(sweeps) == 5

    def test_a_noisy_point_moves_nh_past_it(self):
        sweeps = _mesh_sweeps({3: True, 4: True, 5: False, 6: True, 8: True})
        assert critical_pulse_count(sweeps) == 6

    def test_only_zero_pulses(self):
        assert critical_pulse_count(_mesh_sweeps({0: True})) is None

    def test_nothing_muffled(self):
        assert critical_pulse_count(_mesh_sweeps({n: False for n in range(11)})) is None
