"""Integration tests for the fault-injection subsystem.

Covers the full loop: declarative plans compiled onto a scenario's
engine, router crash + restart with and without graceful restart, drop
accounting on downed/lossy links, damping-state survival across
failures, causal attribution of fault-induced charges, and the
determinism contract (same seed + same plan = same digests, whatever
``--jobs`` is).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.causality import analyze_trace
from repro.bgp.graceful_restart import GracefulRestartConfig
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import MraiConfig
from repro.bgp.origin import OriginRouter
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.params import CISCO_DEFAULTS
from repro.experiments.gr_faults import gr_faults_experiment
from repro.experiments.parallel import execute_sweep
from repro.faults import (
    FaultPlan,
    FlapStorm,
    LinkFault,
    LinkImpairment,
    RouterCrash,
    SessionReset,
)
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topology.mesh import mesh_topology
from repro.trace.tracer import MemorySink, Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig


def _mesh_config(**overrides) -> ScenarioConfig:
    """4x4 mesh with a pinned ISP and instant MRAI, so crash windows are
    easy to reason about (routes propagate within link delay)."""
    topology = mesh_topology(4, 4)
    base = ScenarioConfig(
        topology=topology,
        damping=CISCO_DEFAULTS,
        seed=7,
        isp=topology.nodes[0],
        mrai=MraiConfig(base=0.0),
        link=LinkConfig(base_delay=0.01, jitter=0.02),
    )
    return replace(base, **overrides)


def _victim(config: ScenarioConfig) -> str:
    return config.topology.neighbors(config.isp)[0]


def _crash_plan(victim: str) -> FaultPlan:
    # The crash lifecycle tests run with pulses=0: the network holds its
    # warm converged routes, so the crash lands on live state (without
    # MRAI, a single origin flap's path-exploration wave suppresses the
    # prefix mesh-wide and a crash would have nothing to withdraw).
    return FaultPlan(
        name="crash",
        crashes=(RouterCrash(router=victim, at=45.0, down_for=30.0),),
    )


def _run(config: ScenarioConfig, pulses: int = 2):
    scenario = Scenario(config)
    scenario.warm_up()
    tracer = Tracer(MemorySink())
    result = scenario.run(PulseSchedule.regular(pulses, 60.0), tracer=tracer)
    tracer.close()
    return scenario, result, tracer


# ----------------------------------------------------------------------
# crash + restart lifecycle
# ----------------------------------------------------------------------


def test_hard_crash_charges_and_network_recovers():
    config = _mesh_config(charge_on_session_reset=True)
    victim = _victim(config)
    config = replace(config, faults=_crash_plan(victim))
    scenario, result, tracer = _run(config, pulses=0)

    assert scenario.fault_injector is not None
    assert scenario.fault_injector.actions_fired == 2
    assert [a for _, a, _ in scenario.fault_injector.fired] == ["crash", "restart"]
    stats = scenario.routers[victim].stats
    assert stats.crashes == 1
    assert stats.restarts == 1
    # The crash is visible in exact charge attribution.
    report = analyze_trace(tracer.records)
    assert report.charges_by_class["fault-induced"] > 0
    # The episode still drains and every router re-converges.
    assert scenario.engine.pending_count == 0
    for router in scenario.routers.values():
        assert router.has_route(config.prefix)


def test_graceful_restart_suppresses_fault_induced_charges():
    base = _mesh_config(charge_on_session_reset=True)
    victim = _victim(base)
    hard = replace(base, faults=_crash_plan(victim))
    graceful = replace(
        hard, graceful_restart=GracefulRestartConfig(restart_time=120.0)
    )

    _, _, hard_trace = _run(hard, pulses=0)
    scenario, _, gr_trace = _run(graceful, pulses=0)

    hard_report = analyze_trace(hard_trace.records)
    gr_report = analyze_trace(gr_trace.records)
    assert hard_report.charges_by_class["fault-induced"] > 0
    # With MRAI disabled a little restart re-sync churn still charges
    # (each hop reselects as ghost routes collapse), but retention must
    # beat the hard reset's full withdrawal wave.
    assert (
        gr_report.charges_by_class["fault-induced"]
        < hard_report.charges_by_class["fault-induced"]
    )
    # The restarted router came back and re-announced in time: no helper
    # flushed stale routes at expiry.
    for router in scenario.routers.values():
        assert router.gr_helper.expiry_flushes == 0
    for router in scenario.routers.values():
        assert router.has_route(base.prefix)


def test_crash_without_restart_leaves_router_down():
    config = _mesh_config()
    victim = _victim(config)
    plan = FaultPlan(crashes=(RouterCrash(router=victim, at=45.0),))
    scenario, result, _ = _run(replace(config, faults=plan))
    assert not scenario.routers[victim].alive
    # Everyone else routes around the hole.
    for name, router in scenario.routers.items():
        if name != victim:
            assert router.has_route(config.prefix)


def test_watchdog_armed_only_when_faults_present():
    config = _mesh_config()
    faulted = replace(config, faults=_crash_plan(_victim(config)))
    scenario, _, _ = _run(faulted, pulses=1)
    assert scenario.engine.watchdog is not None
    plain, _, _ = _run(config, pulses=1)
    assert plain.engine.watchdog is None


# ----------------------------------------------------------------------
# damping-state survival (line topology, surgical control)
# ----------------------------------------------------------------------


def _build_line(graceful=None, charge_on_session_reset=False):
    """origin -- r1 -- r2 -- r3 plus detour r1 -- r4 -- r3."""
    engine = Engine()
    rng = RngRegistry(11)
    network = Network(engine, rng)
    config = RouterConfig(
        damping=CISCO_DEFAULTS,
        mrai=MraiConfig(base=0.0),
        graceful_restart=graceful,
        charge_on_session_reset=charge_on_session_reset,
    )
    routers = {}
    for name in ("r1", "r2", "r3", "r4"):
        routers[name] = BgpRouter(name, engine, rng, config=config)
        network.add_node(routers[name])
    origin = OriginRouter("origin", engine, rng, prefix="p0", isp="r1")
    network.add_node(origin)
    link = LinkConfig(base_delay=0.001, jitter=0.0)
    for a, b in (
        ("origin", "r1"),
        ("r1", "r2"),
        ("r2", "r3"),
        ("r1", "r4"),
        ("r4", "r3"),
    ):
        network.add_link(a, b, link)
    origin.bring_up()
    engine.run()
    return engine, network, routers


def _suppress_r1_at_r2(engine, routers):
    r2 = routers["r2"]
    for _ in range(3):
        r2.process_update("r1", UpdateMessage(prefix="p0", as_path=None))
        engine.run(until=engine.now + 1.0)
        r2.process_update("r1", UpdateMessage(prefix="p0", as_path=("r1", "origin")))
        engine.run(until=engine.now + 1.0)
    assert r2.damping.is_suppressed("r1", "p0")


def test_neighbor_damping_state_survives_peer_crash_and_restart():
    engine, network, routers = _build_line()
    _suppress_r1_at_r2(engine, routers)
    network.crash_router("r1")
    engine.run(until=engine.now + 1.0)
    network.restart_router("r1")
    engine.run(until=engine.now + 5.0)
    r2 = routers["r2"]
    # r1's crash and fresh re-announcement do not launder the penalty:
    # the (r1, p0) entry at r2 is still suppressed. The crash wave also
    # charged the detour entry past the cut-off (the whole network sits
    # behind r1), so the re-learned route is present but unusable...
    assert r2.damping.is_suppressed("r1", "p0")
    assert r2.rib_in("r1").route("p0") is not None
    assert r2.best_route("p0") is None
    # ...until the reuse timers fire, at which point it comes back.
    engine.run(until=engine.now + 4000.0)
    assert r2.has_route("p0")


def test_crashed_router_loses_damping_state_but_observers_survive():
    engine, network, routers = _build_line()
    r2 = routers["r2"]
    observers_before = list(r2.damping.suppression_observers)
    # Build penalty at r2 itself, then crash *r2*: its own damping
    # state is control-plane memory and must be lost.
    r2.process_update("r1", UpdateMessage(prefix="p0", as_path=None))
    engine.run(until=engine.now + 1.0)
    assert r2.damping.penalty_value("r1", "p0") > 0.0
    network.crash_router("r2")
    engine.run(until=engine.now + 1.0)
    network.restart_router("r2")
    engine.run(until=engine.now + 5.0)
    assert r2.damping.penalty_value("r1", "p0") == 0.0
    # Metrics observers were re-adopted by the replacement manager, so
    # post-restart suppressions still reach the collector.
    assert r2.damping.suppression_observers == observers_before
    assert r2.has_route("p0")


def _centre_crash_episode(at):
    """5x5 mesh, three pulses; the centre router is down for 30 s from
    ``at`` (``None``: no fault at all)."""
    config = ScenarioConfig(topology=mesh_topology(5, 5), damping=CISCO_DEFAULTS, seed=1)
    if at is not None:
        crash = RouterCrash(router="m02x02", at=at, down_for=30.0)
        config = replace(config, faults=FaultPlan(crashes=(crash,)))
    return Scenario(config).run(PulseSchedule.regular(3, 60.0))


def test_crash_ends_the_routers_suppressions_in_the_record():
    # At 400 s the episode is in full swing: the victim dies suppressing.
    collector = _centre_crash_episode(at=400.0).collector
    deltas = [delta for _, delta in collector.damped_link_deltas()]
    assert deltas.count(-1) == deltas.count(1) > 0
    assert collector.damped_link_series()[-1][1] == 0
    records = [r for per_router in collector.suppression_records().values() for r in per_router]
    assert len(records) == deltas.count(1)
    assert all(record.ended is not None for record in records)


def test_suppression_history_survives_restart():
    # By 4000 s all secondary charging is over, so the crash cannot add
    # or prevent a recharge; it must not lose the ones already recorded.
    crashed = _centre_crash_episode(at=4000.0).summary
    assert crashed.secondary_charges == _centre_crash_episode(None).summary.secondary_charges > 0


def test_gr_helper_retains_stale_and_duplicate_refresh_avoids_charge():
    gr = GracefulRestartConfig(restart_time=60.0)
    engine, network, routers = _build_line(
        graceful=gr, charge_on_session_reset=True
    )
    r2 = routers["r2"]
    penalty_before = r2.damping.penalty_value("r1", "p0")
    network.crash_router("r1")
    engine.run(until=engine.now + 1.0)
    # Helper mode: the route is retained (stale) instead of withdrawn,
    # and nothing was charged.
    assert r2.gr_helper.helping("r1")
    assert r2.gr_helper.is_stale("r1", "p0")
    assert r2.has_route("p0")
    assert r2.damping.penalty_value("r1", "p0") == pytest.approx(penalty_before)
    network.restart_router("r1")
    engine.run(until=engine.now + 5.0)
    # The same path came back before the restart timer: stale cleared,
    # still uncharged.
    assert not r2.gr_helper.helping("r1")
    assert r2.damping.penalty_value("r1", "p0") == pytest.approx(penalty_before)


def test_gr_stale_expiry_flushes_and_charges():
    gr = GracefulRestartConfig(restart_time=10.0)
    engine, network, routers = _build_line(
        graceful=gr, charge_on_session_reset=True
    )
    r2 = routers["r2"]
    network.crash_router("r1")
    # Never restart r1: the stale hold expires and the implicit
    # withdrawal is processed (and charged, since configured).
    engine.run(until=engine.now + 30.0)
    assert not r2.gr_helper.helping("r1")
    assert r2.gr_helper.expiry_flushes == 1
    assert r2.stats.stale_routes_flushed == 1
    assert r2.rib_in("r1").route("p0") is None
    assert r2.damping.penalty_value("r1", "p0") > 0.0
    # The whole network sits behind r1, so once the ghosts are flushed
    # nothing is reachable — no stale route lingers forever.
    assert not r2.has_route("p0")


# ----------------------------------------------------------------------
# drop accounting (satellite: no silent losses)
# ----------------------------------------------------------------------


def test_link_fault_drops_are_counted_and_traced():
    config = _mesh_config()
    isp = config.isp
    neighbor = config.topology.neighbors(isp)[1]
    # A router does not send into a session it knows is down, so what a
    # link fault drops is what was in flight when it hit: fail the link
    # a millisecond (a tenth of the smallest link delay) before a
    # delivery on it that a fault-free run of the same seed shows.
    _, clean, _ = _run(config)
    start = clean.flap_times[0] - clean.schedule.events[0][0]
    delivery = next(
        u.time for u in clean.collector.updates if {u.src, u.dst} == {isp, neighbor}
    )
    plan = FaultPlan(
        link_faults=(
            LinkFault(a=isp, b=neighbor, down_at=delivery - start - 0.001, up_at=100.0),
        ),
        session_resets=(SessionReset(a=isp, b=neighbor, at=150.0),),
    )
    scenario, result, tracer = _run(replace(config, faults=plan))
    collector = result.collector
    assert collector.drop_count > 0
    assert "link-down-inflight" in collector.drops_by_reason()
    assert collector.drop_count == scenario.network.messages_dropped
    reasons = collector.drops_by_reason()
    assert set(reasons) <= {"link-down", "link-down-inflight", "node-down", "loss"}
    assert sum(reasons.values()) == collector.drop_count
    # Every drop is in the causal trace with a cause edge.
    drops = [record for record in tracer.records if record.kind == "drop"]
    assert len(drops) == collector.drop_count
    assert all(record.cause_id is not None for record in drops)


def test_lossy_link_drops_with_reason_loss():
    config = _mesh_config()
    isp = config.isp
    neighbor = config.topology.neighbors(isp)[0]
    plan = FaultPlan(
        impairments=(
            LinkImpairment(a=isp, b=neighbor, start=0.0, loss=0.5),
        )
    )
    scenario, result, _ = _run(replace(config, faults=plan), pulses=3)
    reasons = result.collector.drops_by_reason()
    assert reasons.get("loss", 0) > 0
    # Losses perturb but do not wedge: the episode drains and converges.
    assert scenario.engine.pending_count == 0
    for router in scenario.routers.values():
        assert router.has_route(config.prefix)


# ----------------------------------------------------------------------
# determinism: same plan + same seed = same bytes, whatever jobs is
# ----------------------------------------------------------------------


def _chaos_config() -> ScenarioConfig:
    config = _mesh_config(charge_on_session_reset=True)
    isp = config.isp
    a, b = isp, config.topology.neighbors(isp)[1]
    plan = FaultPlan(
        name="chaos",
        crashes=(RouterCrash(router=_victim(config), at=45.0, down_for=30.0),),
        link_faults=(LinkFault(a=a, b=b, down_at=70.0, up_at=110.0),),
        impairments=(
            LinkImpairment(a=a, b=b, start=0.0, duration=40.0, loss=0.2),
        ),
        storms=(
            FlapStorm(
                name="burst",
                links=((a, b),),
                start=120.0,
                flaps=2,
                min_interval=5.0,
                max_interval=15.0,
                down_time=3.0,
            ),
        ),
    )
    return replace(
        config,
        faults=plan,
        graceful_restart=GracefulRestartConfig(restart_time=90.0),
    )


def test_identical_faulted_runs_are_digest_identical():
    first = execute_sweep(_chaos_config(), (1, 2), jobs=1)
    second = execute_sweep(_chaos_config(), (1, 2), jobs=1)
    assert [o.digest for o in first] == [o.digest for o in second]


def test_faulted_sweep_digest_identical_jobs_1_vs_2():
    config = _chaos_config()
    sequential = execute_sweep(config, (0, 1, 2), jobs=1)
    parallel = execute_sweep(config, (0, 1, 2), jobs=2)
    assert [o.digest for o in sequential] == [o.digest for o in parallel]
    assert sequential == parallel


# ----------------------------------------------------------------------
# the FX1 experiment itself
# ----------------------------------------------------------------------


def test_fx1_experiment_contrasts_gr_with_hard_reset():
    result = gr_faults_experiment()
    data = result.data
    baseline = data["no crash (baseline)"]
    hard = data["hard reset"]
    graceful = data["graceful restart"]
    assert baseline["fault_induced"] == 0
    assert hard["fault_induced"] > 0
    assert graceful["fault_induced"] == 0
    # The crash costs messages and convergence time; GR costs less.
    assert hard["messages"] > baseline["messages"]
    assert graceful["messages"] < hard["messages"]
    assert graceful["secondary"] < hard["secondary"]
    assert "FX1" in result.render()
