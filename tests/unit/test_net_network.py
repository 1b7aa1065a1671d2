"""Unit tests for the Network registry and hooks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import LinkConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class Sink(Node):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.received = []
        self.started = 0

    def handle_message(self, message: Message) -> None:
        self.received.append(message)

    def start(self) -> None:
        self.started += 1


@pytest.fixture
def network():
    return Network(Engine(), RngRegistry(1))


def test_duplicate_node_name_rejected(network):
    network.add_node(Sink("a"))
    with pytest.raises(ConfigurationError):
        network.add_node(Sink("a"))


def test_link_requires_existing_nodes(network):
    network.add_node(Sink("a"))
    with pytest.raises(ConfigurationError):
        network.add_link("a", "ghost")
    with pytest.raises(ConfigurationError):
        network.add_link("ghost", "a")


def test_duplicate_link_rejected(network):
    network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    network.add_link("a", "b")
    with pytest.raises(ConfigurationError):
        network.add_link("b", "a")


def test_link_lookup_is_order_insensitive(network):
    network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    link = network.add_link("a", "b")
    assert network.link("b", "a") is link
    assert network.has_link("b", "a")


def test_unknown_node_lookup_raises(network):
    with pytest.raises(SimulationError):
        network.node("missing")


def test_neighbors_recorded_on_link_add(network):
    a = network.add_node(Sink("a"))
    b = network.add_node(Sink("b"))
    network.add_node(Sink("c"))
    network.add_link("a", "b")
    network.add_link("a", "c")
    assert a.neighbors == ["b", "c"]
    assert b.neighbors == ["a"]


def test_degree(network):
    network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    network.add_node(Sink("c"))
    network.add_link("a", "b")
    network.add_link("a", "c")
    assert network.degree("a") == 2
    assert network.degree("b") == 1


def test_counts(network):
    network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    network.add_link("a", "b")
    assert network.node_count == 2
    assert network.link_count == 1


def test_delivery_hook_sees_messages(network):
    a = network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    network.add_link("a", "b", LinkConfig(base_delay=0.01, jitter=0.0))
    seen = []
    network.add_delivery_hook(lambda m: seen.append(m.payload))
    a.send("b", "payload")
    network.engine.run()
    assert seen == ["payload"]
    assert network.messages_delivered == 1


def test_start_invokes_every_node(network):
    a = network.add_node(Sink("a"))
    b = network.add_node(Sink("b"))
    network.start()
    assert a.started == 1
    assert b.started == 1


def test_unattached_node_raises():
    node = Sink("lonely")
    with pytest.raises(RuntimeError):
        _ = node.network
