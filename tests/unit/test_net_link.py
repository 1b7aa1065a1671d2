"""Unit tests for links, messages, and the network fabric."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import LinkConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class Recorder(Node):
    """Test node that records everything delivered to it."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.received = []

    def handle_message(self, message: Message) -> None:
        self.received.append(message)


@pytest.fixture
def net():
    engine = Engine()
    network = Network(engine, RngRegistry(1))
    a = network.add_node(Recorder("a"))
    b = network.add_node(Recorder("b"))
    network.add_link("a", "b", LinkConfig(base_delay=0.1, jitter=0.0))
    return engine, network, a, b


def test_link_config_validation():
    with pytest.raises(ConfigurationError):
        LinkConfig(base_delay=-1.0)
    with pytest.raises(ConfigurationError):
        LinkConfig(jitter=-0.1)


def test_self_link_rejected():
    engine = Engine()
    network = Network(engine, RngRegistry(1))
    network.add_node(Recorder("a"))
    with pytest.raises(ConfigurationError):
        network.add_link("a", "a")


def test_message_delivery(net):
    engine, network, a, b = net
    a.send("b", "hello")
    engine.run()
    assert len(b.received) == 1
    assert b.received[0].payload == "hello"
    assert b.received[0].src == "a"
    assert b.received[0].dst == "b"


def test_delivery_delay_is_base_plus_jitter(net):
    engine, network, a, b = net
    message = a.send("b", "x")
    engine.run()
    assert message.delivered_at - message.sent_at == pytest.approx(0.1)
    assert message.delivered_at == pytest.approx(0.1)


def test_jitter_bounds():
    engine = Engine()
    network = Network(engine, RngRegistry(1))
    a = network.add_node(Recorder("a"))
    network.add_node(Recorder("b"))
    network.add_link("a", "b", LinkConfig(base_delay=0.1, jitter=0.5))
    messages = [a.send("b", i) for i in range(50)]
    engine.run()
    for message in messages:
        assert 0.1 <= message.delivered_at - message.sent_at <= 0.6


def test_base_delay_draws_what_uniform_would_bit_for_bit():
    """The delay is computed without ``random.uniform``'s frame; it must
    stay the same float from the same draw of the same ``link:`` stream."""
    config = LinkConfig(base_delay=0.01, jitter=0.04)
    network = Network(Engine(), RngRegistry(42))
    network.add_node(Recorder("a"))
    network.add_node(Recorder("b"))
    link = network.add_link("a", "b", config)
    twin = RngRegistry(42).stream("link:a-b")
    for _ in range(10_000):
        assert link._base_delay() == config.base_delay + twin.uniform(0.0, config.jitter)
    assert network.rng.stream("link:a-b").random() == twin.random()  # same draw count


def test_fifo_ordering_per_direction():
    """A message must never overtake an earlier one in the same direction,
    even when jitter draws would reorder them: on both delivery paths each
    delivery time is the running max of ``sent_at + delay``. The queue
    delivers messages that share an instant in one engine event."""
    config = LinkConfig(base_delay=0.01, jitter=0.5)
    for coalesce in (False, True):
        engine = Engine()
        network = Network(engine, RngRegistry(3), coalesce_delivery=coalesce)
        a = network.add_node(Recorder("a"))
        b = network.add_node(Recorder("b"))
        network.add_link("a", "b", config)
        twin = RngRegistry(3).stream("link:a-b")
        for i in range(30):
            a.send("b", i)
        engine.run()
        assert [m.payload for m in b.received] == list(range(30))
        floor = 0.0
        for message in b.received:
            due = message.sent_at + config.base_delay + twin.uniform(0.0, config.jitter)
            floor = max(floor, due)
            assert message.delivered_at == floor
        if coalesce:
            assert engine.events_executed < len(b.received)
        else:
            assert engine.events_executed == len(b.received)


def _same_instant_order(coalesce, script):
    """Run ``script(engine, a, b, log)`` on zero-jitter links a→c and b→c
    and return the order in which events logged at ``c``."""
    engine = Engine()
    network = Network(engine, RngRegistry(1), coalesce_delivery=coalesce)
    log = []

    class Logger(Recorder):
        def handle_message(self, message):
            log.append(message.payload)

    a = network.add_node(Recorder("a"))
    b = network.add_node(Recorder("b"))
    network.add_node(Logger("c"))
    network.add_link("a", "c", LinkConfig(base_delay=1.0, jitter=0.0))
    network.add_link("b", "c", LinkConfig(base_delay=1.0, jitter=0.0))
    script(engine, a, b, log)
    engine.run()
    return log


def test_queued_delivery_is_sequenced_when_its_queue_arms():
    """Per-message delivery sequences each event at send time; the queue
    sequences it when the direction's queue arms, which can be later. So
    a same-instant delivery from another link, or a timer armed between
    the send and the re-arm, can run first on the queued path."""

    def two_links(engine, a, b, log):
        a.send("c", "a1")
        b.send("c", "b1")
        a.send("c", "a2")

    assert _same_instant_order(False, two_links) == ["a1", "b1", "a2"]
    assert _same_instant_order(True, two_links) == ["a1", "a2", "b1"]

    def timer_between(engine, a, b, log):
        a.send("c", "m1")  # due 1.0
        engine.schedule_at(0.5, lambda: a.send("c", "m2"))  # due 1.5
        engine.schedule_at(
            0.75, lambda: engine.schedule_at(1.5, lambda: log.append("timer"), actor="c")
        )

    assert _same_instant_order(False, timer_between) == ["m1", "m2", "timer"]
    assert _same_instant_order(True, timer_between) == ["m1", "timer", "m2"]


def test_bidirectional_delivery(net):
    engine, network, a, b = net
    a.send("b", "ping")
    b.send("a", "pong")
    engine.run()
    assert [m.payload for m in a.received] == ["pong"]
    assert [m.payload for m in b.received] == ["ping"]


def test_down_link_drops_messages(net):
    engine, network, a, b = net
    network.link("a", "b").set_up(False)
    a.send("b", "lost")
    engine.run()
    assert b.received == []


def test_link_failure_drops_in_flight_messages(net):
    engine, network, a, b = net
    a.send("b", "in-flight")
    network.link("a", "b").set_up(False)
    engine.run()
    assert b.received == []


def test_send_without_link_raises(net):
    engine, network, a, b = net
    network.add_node(Recorder("c"))
    with pytest.raises(SimulationError):
        a.send("c", "no link")


def test_other_end(net):
    _, network, _, _ = net
    link = network.link("a", "b")
    assert link.other_end("a") == "b"
    assert link.other_end("b") == "a"
    with pytest.raises(SimulationError):
        link.other_end("z")


def test_messages_carried_counter(net):
    engine, network, a, b = net
    a.send("b", 1)
    b.send("a", 2)
    engine.run()
    assert network.link("a", "b").messages_carried == 2


def test_message_latency_none_before_delivery():
    message = Message(src="a", dst="b", payload=None)
    assert message.delivered_at is None


def test_message_ids_unique():
    first = Message(src="a", dst="b", payload=None)
    second = Message(src="a", dst="b", payload=None)
    assert first.msg_id != second.msg_id


# ----------------------------------------------------------------------
# impaired links: one scheduling per surviving message
# ----------------------------------------------------------------------


def test_extra_jitter_delivers_once(net):
    engine, network, a, b = net
    network.link("a", "b").set_impairment(extra_jitter=0.5)
    sent = a.send("b", "x")
    engine.run()
    assert [m.msg_id for m in b.received] == [sent.msg_id]
    assert network.link("a", "b").messages_carried == 1


def test_duplication_delivers_twice_with_the_send_as_cause(net):
    from repro.trace.sinks import MemorySink
    from repro.trace.tracer import Tracer

    engine, network, a, b = net
    tracer = Tracer(MemorySink())
    tracer.attach(engine, network, [])
    network.link("a", "b").set_impairment(duplicate=1.0)
    a.send("b", "x")
    engine.run()
    assert len(b.received) == 2
    first, second = b.received
    assert first.msg_id != second.msg_id
    assert first.trace_id is not None and first.trace_id == second.trace_id
    kinds = [record.kind for record in tracer.records]
    assert kinds == ["send", "recv", "recv"]


def test_loss_accounts_for_every_send(net):
    engine, network, a, b = net
    link = network.link("a", "b")
    link.set_impairment(loss=0.5)
    sends = 200
    for i in range(sends):
        a.send("b", i)
    engine.run()
    assert link.messages_carried + link.messages_dropped == sends
    assert len(b.received) == link.messages_carried
    assert 0 < link.messages_dropped < sends
