"""Integration tests for the scenario machinery (build / warm-up / run)."""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.errors import ConfigurationError, SimulationError
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ORIGIN_NAME, Scenario, ScenarioConfig, run_episode


def test_warmup_gives_every_router_a_route(fast_config):
    scenario = Scenario(fast_config)
    tup = scenario.warm_up()
    assert tup > 0
    for router in scenario.routers.values():
        assert router.has_route(fast_config.prefix)


def test_warmup_resets_damping_state(fast_config):
    scenario = Scenario(fast_config)
    scenario.warm_up()
    for router in scenario.routers.values():
        assert router.suppressed_entry_count() == 0
        for peer in router.neighbors:
            assert router.damping.penalty_value(peer, fast_config.prefix) == 0.0


def test_warmup_twice_rejected(fast_config):
    scenario = Scenario(fast_config)
    scenario.warm_up()
    with pytest.raises(SimulationError):
        scenario.warm_up()


def test_run_twice_rejected(fast_config):
    scenario = Scenario(fast_config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(1))
    with pytest.raises(SimulationError):
        scenario.run(PulseSchedule.regular(1))


def test_run_without_explicit_warmup_warms_up(fast_config):
    scenario = Scenario(fast_config)
    result = scenario.run(PulseSchedule.regular(1))
    assert result.warmup_convergence > 0


def test_untraced_run_attaches_one_recorder(fast_config):
    """The collector is the only always-on recorder of an episode: one
    delivery hook, one drop hook, one observer per damping router (the
    warm-up's own delivery hook is gone by then)."""
    scenario = Scenario(fast_config)
    scenario.run(PulseSchedule.regular(1))
    assert len(scenario.network._delivery_hooks) == 1
    assert len(scenario.network._drop_hooks) == 1
    for router in scenario.routers.values():
        assert len(router.damping.suppression_observers) == 1


def test_origin_attached_to_isp(fast_config):
    scenario = Scenario(fast_config)
    assert scenario.network.has_link(ORIGIN_NAME, scenario.isp)
    assert scenario.origin.isp == scenario.isp
    assert scenario.isp in fast_config.topology.nodes


def test_explicit_isp_respected(small_mesh):
    isp = small_mesh.nodes[3]
    config = ScenarioConfig(topology=small_mesh, damping=CISCO_DEFAULTS, isp=isp, seed=1)
    scenario = Scenario(config)
    assert scenario.isp == isp


def test_unknown_isp_rejected(small_mesh):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(topology=small_mesh, isp="nope")


def test_zero_pulse_run_is_quiet(fast_config):
    result = run_episode(fast_config, pulses=0)
    assert result.message_count == 0
    assert result.convergence_time == 0.0
    assert result.final_announcement_time is None


def test_single_pulse_metrics(fast_config):
    result = run_episode(fast_config, pulses=1)
    assert result.message_count > 0
    assert result.convergence_time > 0
    assert result.final_announcement_time is not None
    assert result.flap_times[-1] == result.final_announcement_time
    assert result.schedule.pulse_count == 1


def test_truncated_episode_is_the_shorter_episode(fast_config):
    """An episode started with 3 pulses, drained to the branch point of
    a 1-pulse prefix and truncated there, finishes as a 1-pulse run."""
    from repro.metrics.digest import run_digest

    scenario = Scenario(fast_config)
    episode = scenario.start_episode(PulseSchedule.regular(3, 60.0))
    prefix = PulseSchedule.regular(1, 60.0)
    cut = episode.branch_point(prefix)
    assert cut == episode.start + 120.0  # the second withdrawal
    scenario.engine.run_before(cut)
    episode.truncate(prefix)
    branched = scenario.finish_episode(episode)
    fresh = run_episode(fast_config, pulses=1)
    assert branched.schedule == fresh.schedule
    assert branched.flap_times == fresh.flap_times
    assert branched.end_time == fresh.end_time
    assert run_digest(branched.collector) == run_digest(fresh.collector)


def test_truncate_rejects_a_schedule_that_is_not_a_prefix(fast_config):
    scenario = Scenario(fast_config)
    episode = scenario.start_episode(PulseSchedule.regular(2, 60.0))
    with pytest.raises(ConfigurationError, match="not a prefix"):
        episode.truncate(PulseSchedule.regular(1, 30.0))
    with pytest.raises(ConfigurationError, match="not a prefix"):
        episode.branch_point(PulseSchedule.regular(3, 60.0))


def test_same_seed_reproduces_exactly(fast_config):
    a = run_episode(fast_config, pulses=2)
    b = run_episode(fast_config, pulses=2)
    assert a.convergence_time == b.convergence_time
    assert a.message_count == b.message_count
    assert a.summary == b.summary


def test_different_seed_differs(small_mesh):
    base = ScenarioConfig(topology=small_mesh, damping=CISCO_DEFAULTS, seed=1)
    other = ScenarioConfig(topology=small_mesh, damping=CISCO_DEFAULTS, seed=2)
    a = run_episode(base, pulses=1)
    b = run_episode(other, pulses=1)
    assert (a.convergence_time, a.message_count) != (b.convergence_time, b.message_count)


def test_no_damping_scenario(small_mesh):
    config = ScenarioConfig(topology=small_mesh, damping=None, seed=1)
    result = run_episode(config, pulses=2)
    assert result.summary.total_suppressions == 0
    assert result.convergence_time < 300.0


def test_rcn_and_selective_mutually_exclusive(small_mesh):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(
            topology=small_mesh, damping=CISCO_DEFAULTS, rcn=True, selective=True
        )


def test_damping_fraction_validation(small_mesh):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(topology=small_mesh, damping_fraction=1.5)


def test_no_valley_requires_relationships(small_mesh):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(topology=small_mesh, use_no_valley=True)


def test_partial_deployment_isp_always_damps(small_mesh):
    config = ScenarioConfig(
        topology=small_mesh, damping=CISCO_DEFAULTS, damping_fraction=0.25, seed=3
    )
    scenario = Scenario(config)
    assert scenario.routers[scenario.isp].damping is not None
    damping_count = sum(
        1 for router in scenario.routers.values() if router.damping is not None
    )
    assert 0 < damping_count < len(scenario.routers)


def test_intended_model_uses_measured_tup(fast_config):
    scenario = Scenario(fast_config)
    scenario.warm_up()
    model = scenario.intended_model()
    assert model.tup == scenario.warmup_convergence
    assert model.params is CISCO_DEFAULTS


def test_intended_model_requires_damping(small_mesh):
    config = ScenarioConfig(topology=small_mesh, damping=None, seed=1)
    scenario = Scenario(config)
    scenario.warm_up()
    with pytest.raises(ConfigurationError):
        scenario.intended_model()


def test_no_valley_scenario_warms_up():
    """Valley-free reachability: every AS learns the origin's prefix."""
    topology = internet_topology(40, seed=5, with_relationships=True)
    config = ScenarioConfig(
        topology=topology, damping=CISCO_DEFAULTS, use_no_valley=True, seed=1
    )
    scenario = Scenario(config)
    scenario.warm_up()
    for router in scenario.routers.values():
        assert router.has_route(config.prefix)


def test_no_valley_scenarios_leave_the_shared_topology_unchanged():
    """The origin is the ISP's customer without that edge being written
    into the cached topology's relationship map (which every spawned
    sweep worker unpickles with its config)."""
    from repro.bgp.policy import Relationship
    from repro.experiments.base import internet208_config

    relationships = internet208_config().topology.relationships
    before = (relationships.provider_edge_count, relationships.peer_edge_count)
    isps = set()
    for seed in (1, 2, 3, 42):
        scenario = Scenario(internet208_config(use_no_valley=True, seed=seed))
        assert scenario.relationship(scenario.isp, ORIGIN_NAME) is Relationship.CUSTOMER
        assert not relationships.has_relationship(scenario.isp, ORIGIN_NAME)
        isps.add(scenario.isp)
    assert len(isps) == 4
    after = (relationships.provider_edge_count, relationships.peer_edge_count)
    assert after == before


def test_config_label():
    topology = mesh_topology(3, 3)
    config = ScenarioConfig(topology=topology, damping=CISCO_DEFAULTS, rcn=True)
    assert "rcn" in config.label()
    assert "damping" in config.label()
    no_damp = ScenarioConfig(topology=topology, damping=None)
    assert "no-damping" in no_damp.label()
