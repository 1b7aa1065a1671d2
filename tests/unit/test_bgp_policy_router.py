"""No-valley policy exercised through the router's export machinery.

The policy unit tests check the rules in isolation; these check that
`BgpRouter` actually consults them: a route learned from a provider must
reach customers only, customer routes go everywhere, and local-pref
makes a longer customer path beat a shorter provider path.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import MraiConfig
from repro.bgp.policy import NoValleyPolicy
from repro.bgp.router import BgpRouter, RouterConfig
from repro.net.link import LinkConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topology.relationships import RelationshipMap


class PeerStub(Node):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.updates: List[UpdateMessage] = []

    def handle_message(self, message: Message) -> None:
        self.updates.append(message.payload)


@pytest.fixture
def setup():
    engine = Engine()
    rng = RngRegistry(13)
    network = Network(engine, rng)
    relationships = RelationshipMap()
    relationships.set_provider("R", "cust1")
    relationships.set_provider("R", "cust2")
    relationships.set_peers("R", "peerA")
    relationships.set_provider("prov", "R")
    policy = NoValleyPolicy(relationships.relationship)
    router = BgpRouter(
        "R", engine, rng, policy=policy, config=RouterConfig(mrai=MraiConfig(base=0.0))
    )
    network.add_node(router)
    peers = {}
    for name in ("cust1", "cust2", "peerA", "prov"):
        peer = PeerStub(name)
        network.add_node(peer)
        network.add_link("R", name, LinkConfig(base_delay=0.001, jitter=0.0))
        peers[name] = peer
    return engine, router, peers


def announce(engine, peers, from_peer, path):
    peers[from_peer].send("R", UpdateMessage(prefix="p0", as_path=path))
    engine.run(until=engine.now + 1.0)


def recipients(peers):
    return {name for name, peer in peers.items()
            if any(u.is_announcement for u in peer.updates)}


def test_provider_route_exported_to_customers_only(setup):
    engine, router, peers = setup
    announce(engine, peers, "prov", ("prov", "origin"))
    assert recipients(peers) == {"cust1", "cust2"}


def test_peer_route_exported_to_customers_only(setup):
    engine, router, peers = setup
    announce(engine, peers, "peerA", ("peerA", "origin"))
    assert recipients(peers) == {"cust1", "cust2"}


def test_customer_route_exported_everywhere(setup):
    engine, router, peers = setup
    announce(engine, peers, "cust1", ("cust1", "origin"))
    assert recipients(peers) == {"cust2", "peerA", "prov"}


def test_self_originated_exported_everywhere(setup):
    engine, router, peers = setup
    router.originate("p0")
    engine.run(until=engine.now + 1.0)
    assert recipients(peers) == {"cust1", "cust2", "peerA", "prov"}


def test_prefer_customer_beats_shorter_provider_path(setup):
    engine, router, peers = setup
    announce(engine, peers, "prov", ("prov", "origin"))  # 2 hops
    announce(engine, peers, "cust1", ("cust1", "x", "y", "origin"))  # 4 hops
    best = router.best_route("p0")
    assert best.learned_from == "cust1"


def test_switch_to_customer_route_withdraws_from_peer(setup):
    """When the best route moves from provider-learned to
    customer-learned, peers that had no route must now hear one — and
    when it moves back, the customer-only restriction reapplies."""
    engine, router, peers = setup
    announce(engine, peers, "prov", ("prov", "origin"))
    assert not any(u.is_announcement for u in peers["peerA"].updates)
    announce(engine, peers, "cust1", ("cust1", "z", "origin"))
    # Customer route now best: peerA hears it.
    assert any(u.is_announcement for u in peers["peerA"].updates)
    # Customer withdraws: best falls back to the provider route, which
    # may not be exported to the peer — peerA must receive a withdrawal.
    peers["cust1"].send("R", UpdateMessage(prefix="p0", as_path=None))
    engine.run(until=engine.now + 1.0)
    assert peers["peerA"].updates[-1].is_withdrawal
    assert router.best_route("p0").learned_from == "prov"


def test_no_valley_blocks_peer_to_provider_leak(setup):
    """A peer route must never reach the provider even across multiple
    best-path changes."""
    engine, router, peers = setup
    announce(engine, peers, "peerA", ("peerA", "origin"))
    announce(engine, peers, "peerA", ("peerA", "w", "origin"))
    announce(engine, peers, "peerA", ("peerA", "origin"))
    assert not any(u.is_announcement for u in peers["prov"].updates)
