"""Unit tests for sensitivity analysis and distance profiling."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.distance import convergence_by_distance
from repro.analysis.sensitivity import (
    evaluate_params,
    sweep_parameter,
    tolerance_frontier,
)
from repro.core.intended import IntendedBehaviorModel
from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS
from repro.errors import ConfigurationError


class TestEvaluateParams:
    def test_cisco_onset_is_three(self):
        point = evaluate_params("cisco", CISCO_DEFAULTS)
        assert point.suppression_onset == 3
        assert point.delay_at_onset > 0
        assert point.delay_sustained >= point.delay_at_onset

    def test_juniper_onset_is_two(self):
        point = evaluate_params("juniper", JUNIPER_DEFAULTS)
        assert point.suppression_onset == 2

    def test_never_suppressing_config(self):
        tolerant = replace(CISCO_DEFAULTS, cutoff_threshold=1_000_000.0)
        point = evaluate_params("huge-cutoff", tolerant)
        assert point.suppression_onset is None
        assert point.delay_at_onset == 0.0

    def test_sustained_delay_bounded_by_hold_down(self):
        point = evaluate_params("cisco", CISCO_DEFAULTS)
        assert point.delay_sustained <= CISCO_DEFAULTS.max_hold_down + 1e-6


class TestSweepParameter:
    def test_cutoff_sweep_raises_onset(self):
        points = sweep_parameter(
            CISCO_DEFAULTS, "cutoff_threshold", [2000.0, 3000.0, 5000.0]
        )
        onsets = [p.suppression_onset for p in points]
        assert onsets == sorted(onsets)
        assert onsets[0] == 3
        assert onsets[-1] > 3

    def test_half_life_sweep_changes_delay(self):
        points = sweep_parameter(
            CISCO_DEFAULTS, "half_life", [10 * 60.0, 15 * 60.0, 30 * 60.0]
        )
        delays = [p.delay_sustained for p in points]
        # Longer half-life decays slower but also caps lower relative to
        # hold-down... here all are hold-down-capped at 3600s.
        assert all(d <= CISCO_DEFAULTS.max_hold_down + 1e-6 for d in delays)

    def test_labels(self):
        points = sweep_parameter(CISCO_DEFAULTS, "cutoff_threshold", [2500.0])
        assert points[0].label == "cutoff_threshold=2500"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_parameter(CISCO_DEFAULTS, "cutoff_threshold", [])
        with pytest.raises(ConfigurationError):
            sweep_parameter(CISCO_DEFAULTS, "nonexistent", [1.0])


class TestToleranceFrontier:
    def test_frontier_achieves_target(self):
        cutoff = tolerance_frontier(CISCO_DEFAULTS, target_onset=5)
        params = replace(CISCO_DEFAULTS, cutoff_threshold=cutoff)
        model = IntendedBehaviorModel(params, flap_interval=60.0, tup=0.0)
        onset = model.suppression_onset()
        assert onset is None or onset >= 5
        # And it is tight: slightly below the frontier suppresses earlier.
        tighter = replace(CISCO_DEFAULTS, cutoff_threshold=cutoff - 50.0)
        tighter_model = IntendedBehaviorModel(tighter, flap_interval=60.0, tup=0.0)
        assert tighter_model.suppression_onset() < 5

    def test_target_one_is_trivial(self):
        cutoff = tolerance_frontier(CISCO_DEFAULTS, target_onset=1, low=800.0)
        assert cutoff >= 800.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tolerance_frontier(CISCO_DEFAULTS, target_onset=0)


class TestDistanceProfile:
    @pytest.fixture(scope="class")
    def episode(self):
        from repro.core.params import CISCO_DEFAULTS as params
        from repro.topology.mesh import mesh_topology
        from repro.workload.pulses import PulseSchedule
        from repro.workload.scenarios import Scenario, ScenarioConfig

        config = ScenarioConfig(topology=mesh_topology(5, 5), damping=params, seed=4)
        scenario = Scenario(config)
        scenario.warm_up()
        result = scenario.run(PulseSchedule.regular(1, 60.0))
        return scenario, result

    def test_buckets_cover_all_routers(self, episode):
        scenario, result = episode
        buckets = convergence_by_distance(scenario, result)
        assert sum(b.router_count for b in buckets) == len(scenario.routers)
        assert buckets[0].hops == 0
        assert buckets[0].router_count == 1  # the ISP itself

    def test_settle_times_nonnegative_and_bounded(self, episode):
        scenario, result = episode
        for bucket in convergence_by_distance(scenario, result):
            assert 0.0 <= bucket.mean_settle <= bucket.max_settle
            assert bucket.max_settle <= result.convergence_time + 1e-6

    def test_suppression_spreads_beyond_the_isp(self, episode):
        scenario, result = episode
        buckets = convergence_by_distance(scenario, result)
        remote = [b for b in buckets if b.hops >= 2]
        assert any(b.routers_with_suppression > 0 for b in remote)
