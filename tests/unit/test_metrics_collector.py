"""Unit tests for the metrics collector and convergence summary, driven
by a tiny real simulation (two routers plus a flapping origin)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bgp.mrai import MraiConfig
from repro.bgp.origin import ORIGIN_NAME, OriginRouter
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.damping import DampingManager
from repro.core.params import CISCO_DEFAULTS, UpdateKind
from repro.metrics.collector import MetricsCollector
from repro.metrics.convergence import summarize_convergence
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture
def simulation():
    engine = Engine()
    rng = RngRegistry(2)
    network = Network(engine, rng)
    config = RouterConfig(damping=CISCO_DEFAULTS, mrai=MraiConfig(base=0.0))
    r1 = BgpRouter("r1", engine, rng, config=config)
    r2 = BgpRouter("r2", engine, rng, config=config)
    origin = OriginRouter("origin", engine, rng, prefix="p0", isp="r1")
    for node in (r1, r2, origin):
        network.add_node(node)
    link = LinkConfig(base_delay=0.001, jitter=0.0)
    network.add_link("origin", "r1", link)
    network.add_link("r1", "r2", link)
    return engine, network, origin, r1, r2


def test_counts_updates_delivered_after_attach(simulation):
    engine, network, origin, r1, r2 = simulation
    origin.bring_up()
    engine.run()  # warm-up traffic, not observed
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    origin.take_down()
    engine.run(until=engine.now + 1.0)
    # down propagates: origin->r1, r1->r2 = 2 updates.
    assert collector.message_count == 2
    assert collector.updates[0].is_withdrawal


def test_attach_twice_rejected(simulation):
    engine, network, origin, r1, r2 = simulation
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    with pytest.raises(RuntimeError):
        collector.attach(network, [r1])


def test_convergence_time_from_reference(simulation):
    engine, network, origin, r1, r2 = simulation
    origin.bring_up()
    engine.run()
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    down_at = engine.now
    origin.take_down()
    engine.run(until=down_at + 60.0)
    origin.bring_up()
    final = engine.now
    engine.run()
    assert collector.convergence_time(final) > 0
    assert collector.convergence_time(final) < 5.0  # just propagation
    assert collector.last_update_time is not None


def test_convergence_time_zero_without_updates(simulation):
    engine, network, origin, r1, r2 = simulation
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    assert collector.convergence_time(0.0) == 0.0
    assert collector.last_update_time is None


def test_suppression_changes_recorded(simulation):
    engine, network, origin, r1, r2 = simulation
    origin.bring_up()
    engine.run()
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    for _ in range(3):
        origin.take_down()
        engine.run(until=engine.now + 1.0)
        origin.bring_up()
        engine.run(until=engine.now + 1.0)
    assert collector.total_suppressions >= 1
    assert collector.peak_damped_links() >= 1
    assert "r1" in collector.routers_with_suppressions()
    engine.run()  # drain reuse timers
    series = collector.damped_link_series()
    assert series[-1][1] == 0  # everything reused at the end


def test_reuse_events_and_counts(simulation):
    engine, network, origin, r1, r2 = simulation
    origin.bring_up()
    engine.run()
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    for _ in range(3):
        origin.take_down()
        engine.run(until=engine.now + 1.0)
        origin.bring_up()
        engine.run(until=engine.now + 1.0)
    engine.run()
    events = collector.reuse_events()
    assert events
    summary = summarize_convergence(collector, pulses=3, final_announcement_time=None)
    assert summary.noisy_reuses + summary.silent_reuses == len(events)


def test_update_series_binning(simulation):
    engine, network, origin, r1, r2 = simulation
    origin.bring_up()
    engine.run()
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    origin.take_down()
    engine.run(until=engine.now + 1.0)
    series = collector.update_series(bin_width=5.0, start=0.0, end=engine.now)
    assert sum(count for _, count in series) == collector.message_count


def test_summarize_convergence(simulation):
    engine, network, origin, r1, r2 = simulation
    origin.bring_up()
    engine.run()
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    origin.take_down()
    engine.run(until=engine.now + 60.0)
    origin.bring_up()
    final = engine.now
    engine.run()
    summary = summarize_convergence(collector, pulses=1, final_announcement_time=final)
    assert summary.pulses == 1
    assert summary.message_count == collector.message_count
    assert summary.convergence_time == collector.convergence_time(final)


def test_summarize_without_final_announcement(simulation):
    engine, network, origin, r1, r2 = simulation
    collector = MetricsCollector()
    collector.attach(network, [r1, r2])
    summary = summarize_convergence(collector, pulses=0, final_announcement_time=None)
    assert summary.convergence_time == 0.0
    assert summary.message_count == 0


def test_summary_reads_the_isp_reuse_and_the_last_other_noisy_reuse():
    """Of the noisy reuses after the final announcement, the one on the
    origin's peer is the ISP's and the latest on any other peer is the
    last other; earlier and silent reuses count for neither."""
    engine = Engine()
    manager = DampingManager(
        engine, CISCO_DEFAULTS, "isp", lambda peer, prefix: peer != "quiet"
    )
    collector = MetricsCollector()
    isp = SimpleNamespace(name="isp", damping=manager)
    collector.attach(Network(engine, RngRegistry(0)), [isp])

    def flap_thrice(peer):
        for _ in range(3):  # ~3000 > the 2000 cut-off: suppressed
            manager.record_update(peer, "p0", UpdateKind.WITHDRAWAL)

    # Each suppression is reused ~1800 s after its charges.
    peers = ("early", ORIGIN_NAME, "loud", "quiet")
    for start, peer in zip((0.0, 500.0, 1000.0, 1500.0), peers):
        engine.schedule_at(start, lambda peer=peer: flap_thrice(peer))
    engine.run()
    reused = {event.peer: event.time for event in manager.reuse_events}
    final = 2000.0
    assert reused["early"] < final < reused[ORIGIN_NAME] < reused["loud"] < reused["quiet"]

    summary = summarize_convergence(collector, pulses=3, final_announcement_time=final)
    assert summary.isp_reuse == reused[ORIGIN_NAME] - final
    assert summary.last_other_noisy_reuse == reused["loud"] - final
    assert (summary.noisy_reuses, summary.silent_reuses) == (3, 1)
    unclocked = summarize_convergence(collector, pulses=0, final_announcement_time=None)
    assert unclocked.isp_reuse is None and unclocked.last_other_noisy_reuse is None
