"""Integration tests for an episode's recorded timelines and the router state dump."""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ORIGIN_NAME, Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def drained_run():
    config = ScenarioConfig(topology=mesh_topology(4, 4), damping=CISCO_DEFAULTS, seed=3)
    scenario = Scenario(config)
    scenario.warm_up()
    result = scenario.run(PulseSchedule.regular(2, 60.0))
    return scenario, result


class TestTrace:
    """The flat timelines of an episode, read where they are recorded:
    ``flap_times`` on the result, updates and suppression changes on the
    collector."""

    def test_trace_contains_all_flaps(self, drained_run):
        _, result = drained_run
        flaps = result.flap_times
        assert len(flaps) == 4  # 2 pulses = 2 downs + 2 ups
        assert all(earlier < later for earlier, later in zip(flaps, flaps[1:]))
        assert flaps[-1] == result.final_announcement_time

    def test_trace_suppress_reuse_balance(self, drained_run):
        _, result = drained_run
        deltas = [delta for _, delta in result.collector.damped_link_deltas()]
        assert deltas.count(1) == result.summary.total_suppressions > 0
        # The run drains completely, so every suppression was reused.
        assert deltas.count(-1) == deltas.count(1)

    def test_trace_is_time_ordered(self, drained_run):
        _, result = drained_run
        for times in (
            result.collector.update_times,
            [time for time, _ in result.collector.damped_link_deltas()],
        ):
            assert times == sorted(times)

    def test_trace_spans_the_episode(self, drained_run):
        _, result = drained_run
        collector = result.collector
        for first, last in (
            (collector.updates[0].time, collector.updates[-1].time),
            (collector.suppression_changes[0][0], collector.suppression_changes[-1][0]),
        ):
            assert first >= result.flap_times[0]
            assert last <= result.end_time


class TestDumpState:
    def test_dump_reflects_best_route(self, drained_run):
        scenario, result = drained_run
        prefix = scenario.config.prefix
        for router in scenario.routers.values():
            snapshot = router.dump_state(prefix)
            entry = snapshot["prefixes"][prefix]
            assert entry["best"] == router.best_route(prefix).as_path
            assert entry["originated"] is False

    def test_dump_rib_in_consistency(self, drained_run):
        scenario, _ = drained_run
        prefix = scenario.config.prefix
        isp_router = scenario.routers[scenario.isp]
        snapshot = isp_router.dump_state(prefix)
        rib_in = snapshot["prefixes"][prefix]["rib_in"]
        assert ORIGIN_NAME in rib_in
        assert rib_in[ORIGIN_NAME]["path"] == (ORIGIN_NAME,)
        assert rib_in[ORIGIN_NAME]["ever_announced"] is True
        assert rib_in[ORIGIN_NAME]["penalty"] >= 0.0

    def test_dump_origin_shows_origination(self, drained_run):
        scenario, _ = drained_run
        snapshot = scenario.origin.dump_state()
        entry = snapshot["prefixes"][scenario.config.prefix]
        assert entry["originated"] is True
        assert entry["best"] == (ORIGIN_NAME,)

    def test_dump_all_prefixes_default(self, drained_run):
        scenario, _ = drained_run
        router = next(iter(scenario.routers.values()))
        snapshot = router.dump_state()
        assert scenario.config.prefix in snapshot["prefixes"]
        assert snapshot["router"] == router.name

    def test_dump_is_plain_data(self, drained_run):
        import json

        scenario, _ = drained_run
        router = next(iter(scenario.routers.values()))
        snapshot = router.dump_state()
        # Tuples serialise as lists; everything else must be JSON-safe.
        json.dumps(snapshot, default=list)
