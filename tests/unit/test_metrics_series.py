"""Unit tests for time-series helpers and report rendering."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.metrics.report import render_series, render_table
from repro.metrics.series import bin_counts, step_series_at, to_step_series


class TestBinCounts:
    def test_basic_binning(self):
        series = bin_counts([0.1, 0.2, 5.1, 12.0], bin_width=5.0, start=0.0, end=15.0)
        assert series == [(0.0, 2), (5.0, 1), (10.0, 1), (15.0, 0)]

    def test_empty_bins_included(self):
        series = bin_counts([0.0], bin_width=1.0, start=0.0, end=3.0)
        assert series == [(0.0, 1), (1.0, 0), (2.0, 0), (3.0, 0)]

    def test_events_outside_window_ignored(self):
        series = bin_counts([-1.0, 0.5, 99.0], bin_width=1.0, start=0.0, end=2.0)
        assert sum(count for _, count in series) == 1

    def test_default_end_covers_all_events(self):
        series = bin_counts([0.0, 9.9], bin_width=5.0)
        assert sum(count for _, count in series) == 2

    def test_empty_times(self):
        series = bin_counts([], bin_width=5.0, start=0.0, end=10.0)
        assert all(count == 0 for _, count in series)

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            bin_counts([1.0], bin_width=0.0)

    def test_end_before_start(self):
        assert bin_counts([1.0], bin_width=1.0, start=10.0, end=5.0) == []


class TestStepSeries:
    def test_cumulative(self):
        series = to_step_series([(1.0, +1), (2.0, +1), (3.0, -1)])
        assert series == [(1.0, 1), (2.0, 2), (3.0, 1)]

    def test_same_time_deltas_collapse(self):
        series = to_step_series([(1.0, +1), (1.0, +1)])
        assert series == [(1.0, 2)]

    def test_initial_value(self):
        series = to_step_series([(1.0, -1)], initial=5)
        assert series == [(1.0, 4)]

    def test_step_series_at(self):
        series = to_step_series([(1.0, +1), (3.0, +2)])
        assert step_series_at(series, 0.5) == 0
        assert step_series_at(series, 1.0) == 1
        assert step_series_at(series, 2.9) == 1
        assert step_series_at(series, 3.0) == 3
        assert step_series_at(series, 100.0) == 3


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_floats_formatted(self):
        text = render_table(["x"], [[1.23456]])
        assert "1.2" in text

    def test_render_series_empty(self):
        assert "(empty)" in render_series([], title="empty")

    def test_render_series_bars_scale(self):
        text = render_series([(0.0, 1.0), (1.0, 2.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") * 2 == lines[1].count("#")

    def test_render_series_downsamples(self):
        series = [(float(i), 1.0) for i in range(1000)]
        text = render_series(series, max_points=20)
        assert len(text.splitlines()) == 20
