"""Unit tests for the flapping origin AS."""

from __future__ import annotations

import pytest

from repro.bgp.origin import OriginRouter
from repro.bgp.router import BgpRouter, RouterConfig
from repro.bgp.mrai import MraiConfig
from repro.errors import ConfigurationError
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture
def setup():
    engine = Engine()
    rng = RngRegistry(4)
    network = Network(engine, rng)
    isp = BgpRouter("isp", engine, rng, config=RouterConfig(mrai=MraiConfig(base=0.0)))
    origin = OriginRouter("originAS", engine, rng, prefix="p0", isp="isp")
    network.add_node(isp)
    network.add_node(origin)
    network.add_link("originAS", "isp", LinkConfig(base_delay=0.001, jitter=0.0))
    return engine, origin, isp


def test_prefix_required():
    engine = Engine()
    rng = RngRegistry(4)
    with pytest.raises(ConfigurationError):
        OriginRouter("o", engine, rng, prefix="", isp="isp")


def test_bring_up_announces_to_isp(setup):
    engine, origin, isp = setup
    cause = origin.bring_up()
    engine.run()
    assert origin.is_up
    assert isp.best_route("p0") is not None
    assert isp.best_route("p0").as_path == ("originAS",)
    assert cause.status == "up"
    assert cause.seq == 1


def test_take_down_withdraws(setup):
    engine, origin, isp = setup
    origin.bring_up()
    engine.run()
    cause = origin.take_down()
    engine.run()
    assert not origin.is_up
    assert isp.best_route("p0") is None
    assert cause.status == "down"
    assert cause.seq == 2


def test_flap_log_and_times(setup):
    engine, origin, isp = setup
    engine.schedule_at(0.0, origin.bring_up)
    engine.schedule_at(10.0, origin.take_down)
    engine.schedule_at(20.0, origin.bring_up)
    engine.run()
    assert [(t, s) for t, s in origin.flap_log] == [
        (0.0, "up"),
        (10.0, "down"),
        (20.0, "up"),
    ]
    assert origin.flap_times == [0.0, 10.0, 20.0]


def test_causes_are_sequential_and_propagated(setup):
    engine, origin, isp = setup
    origin.bring_up()
    engine.run()
    origin.take_down()
    engine.run()
    entry = isp.rib_in("originAS").entry("p0")
    assert entry.root_cause.seq == 2
    assert entry.root_cause.status == "down"
    assert entry.root_cause.link == ("originAS", "isp")


def test_unstamped_flap(setup):
    engine, origin, isp = setup
    cause = origin.bring_up(stamp_cause=False)
    engine.run()
    assert cause is None
    assert isp.rib_in("originAS").entry("p0").root_cause is None


def test_origin_never_receives_routes_back(setup):
    """All paths to the origin's prefix contain the origin, so the ISP's
    sender-side loop check keeps the origin's inbox empty."""
    engine, origin, isp = setup
    origin.bring_up()
    engine.run()
    assert origin.stats.updates_received == 0


def test_aliases(setup):
    engine, origin, _ = setup
    origin.flap_up()
    engine.run()
    assert origin.is_up
    origin.flap_down()
    engine.run()
    assert not origin.is_up
