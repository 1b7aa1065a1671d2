"""Unit tests for experiment machinery: configs, sweeps, result rendering."""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS
from repro.experiments.base import (
    DEFAULT_PULSE_COUNTS,
    ExperimentResult,
    default_pulse_counts,
    internet100_config,
    internet208_config,
    mesh100_config,
    run_sweep,
    small_mesh_config,
)
from repro.workload.scenarios import run_episode


class TestStandardConfigs:
    def test_mesh100_is_paper_setup(self):
        config = mesh100_config()
        assert config.topology.node_count == 100
        assert config.topology.edge_count == 200
        assert config.damping is CISCO_DEFAULTS
        assert not config.rcn

    def test_topologies_are_cached(self):
        assert mesh100_config().topology is mesh100_config().topology
        assert internet100_config().topology is internet100_config().topology

    def test_internet208_has_relationships(self):
        config = internet208_config()
        assert config.topology.node_count == 208
        assert config.topology.relationships is not None

    def test_mesh100_variants(self):
        rcn = mesh100_config(rcn=True)
        assert rcn.rcn
        juniper = mesh100_config(damping=JUNIPER_DEFAULTS)
        assert juniper.damping is JUNIPER_DEFAULTS
        partial = mesh100_config(damping_fraction=0.5)
        assert partial.damping_fraction == 0.5

    def test_small_mesh_config(self):
        config = small_mesh_config()
        assert config.topology.node_count == 25

    def test_default_pulse_counts(self):
        counts = default_pulse_counts()
        assert counts == list(range(0, 11))
        assert tuple(counts) == DEFAULT_PULSE_COUNTS
        # Returns a fresh list each time (callers may mutate).
        assert default_pulse_counts() is not counts


class TestSweeps:
    def test_run_point_deterministic(self):
        a = run_episode(small_mesh_config(seed=2), pulses=1)
        b = run_episode(small_mesh_config(seed=2), pulses=1)
        assert a.convergence_time == b.convergence_time
        assert a.message_count == b.message_count

    def test_run_sweep_points_in_order(self):
        series = run_sweep("s", small_mesh_config(damping=None, seed=2), [0, 1, 2])
        assert [p.pulses for p in series.points] == [0, 1, 2]
        assert series.label == "s"

    def test_sweep_accessors(self):
        series = run_sweep("s", small_mesh_config(damping=None, seed=2), [1])
        assert series.point(1) is series.points[0]
        assert series.mean_warmup > 0

    def test_empty_series_mean_warmup(self):
        from repro.experiments.base import SweepSeries

        assert SweepSeries("empty").mean_warmup == 0.0

    def test_flap_interval_respected(self):
        fast = run_episode(small_mesh_config(seed=2), pulses=2, flap_interval=10.0)
        slow = run_episode(small_mesh_config(seed=2), pulses=2, flap_interval=120.0)
        assert (
            slow.flap_times[-1] - slow.flap_times[0]
            > fast.flap_times[-1] - fast.flap_times[0]
        )


class TestExperimentResult:
    def make_result(self, **kwargs) -> ExperimentResult:
        defaults = dict(
            experiment_id="T0",
            title="Test",
            headers=["a", "b"],
            rows=[[1, 2]],
        )
        defaults.update(kwargs)
        return ExperimentResult(**defaults)

    def test_render_includes_id_and_title(self):
        text = self.make_result().render()
        assert "T0: Test" in text
        assert "a" in text and "b" in text

    def test_render_includes_notes(self):
        text = self.make_result(notes=["first note", "second note"]).render()
        assert "note: first note" in text
        assert "note: second note" in text

    def test_render_includes_extra_sections(self):
        text = self.make_result(extra_sections=["SECTION BODY"]).render()
        assert "SECTION BODY" in text

    def test_data_defaults_empty(self):
        assert self.make_result().data == {}
