"""Unit tests for figure-driver internals."""

from __future__ import annotations

import pytest

from repro.core.intended import IntendedBehaviorModel
from repro.core.params import CISCO_DEFAULTS
from repro.experiments.fig7 import _count_upward_crossings, _first_reuse_estimate
from repro.experiments.fig8_9 import calculation_series
from repro.core.damping import SuppressionRecord


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
    def test_estimate_uses_starting_penalty(self):
        record = SuppressionRecord(
            peer="p", prefix="d", started=100.0, penalty_at_start=3000.0
        )
        expected = 100.0 + CISCO_DEFAULTS.reuse_delay(3000.0)
        assert _first_reuse_estimate(record, CISCO_DEFAULTS) == pytest.approx(expected)


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
