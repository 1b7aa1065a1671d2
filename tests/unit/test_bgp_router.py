"""Unit tests for the BgpRouter update pipeline."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.bgp.attrs import Route
from repro.bgp.decision import select_best
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import MraiConfig
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.params import CISCO_DEFAULTS
from repro.core.rcn import RootCause
from repro.net.link import LinkConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class PeerStub(Node):
    """Scripted peer: records updates received from the router under test."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.updates: List[UpdateMessage] = []

    def handle_message(self, message: Message) -> None:
        self.updates.append(message.payload)

    def announce(self, prefix: str, path: Tuple[str, ...],
                 cause: Optional[RootCause] = None) -> None:
        self.send("R", UpdateMessage(prefix=prefix, as_path=path, root_cause=cause))

    def withdraw(self, prefix: str, cause: Optional[RootCause] = None) -> None:
        self.send("R", UpdateMessage(prefix=prefix, as_path=None, root_cause=cause))


class Harness:
    def __init__(self, config: Optional[RouterConfig] = None, peers=("A", "B", "C")):
        self.engine = Engine()
        self.rng = RngRegistry(9)
        self.network = Network(self.engine, self.rng)
        self.router = BgpRouter(
            "R",
            self.engine,
            self.rng,
            config=config or RouterConfig(mrai=MraiConfig(base=0.0)),
        )
        self.network.add_node(self.router)
        self.peers = {}
        for name in peers:
            peer = PeerStub(name)
            self.network.add_node(peer)
            self.network.add_link("R", name, LinkConfig(base_delay=0.001, jitter=0.0))
            self.peers[name] = peer

    def run(self) -> None:
        """Advance one second of simulated time — enough for message
        propagation, but without letting reuse timers (minutes away)
        fire. Tests that want timers to fire call ``engine.run()``."""
        self.engine.run(until=self.engine.now + 1.0)


@pytest.fixture
def harness():
    return Harness()


def damped_harness(**kwargs) -> Harness:
    config = RouterConfig(damping=CISCO_DEFAULTS, mrai=MraiConfig(base=0.0), **kwargs)
    return Harness(config=config)


def test_first_announcement_installs_and_propagates(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    best = harness.router.best_route("p0")
    assert best is not None
    assert best.as_path == ("A", "origin")
    # Propagated to B and C with R prepended, not back to A.
    for name in ("B", "C"):
        updates = harness.peers[name].updates
        assert len(updates) == 1
        assert updates[0].as_path == ("R", "A", "origin")
    assert harness.peers["A"].updates == []


def test_withdrawal_propagates(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0")
    harness.run()
    assert harness.router.best_route("p0") is None
    assert harness.peers["B"].updates[-1].is_withdrawal


def test_duplicate_announcement_ignored(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    assert harness.router.stats.duplicates_ignored == 1
    assert len(harness.peers["B"].updates) == 1


def test_switch_to_shorter_path(harness):
    harness.peers["A"].announce("p0", ("A", "x", "origin"))
    harness.run()
    harness.peers["B"].announce("p0", ("B", "origin"))
    harness.run()
    best = harness.router.best_route("p0")
    assert best.as_path == ("B", "origin")
    # C saw both selections.
    assert [u.as_path for u in harness.peers["C"].updates] == [
        ("R", "A", "x", "origin"),
        ("R", "B", "origin"),
    ]
    # B first heard the A-path; once R routes via B, R withdraws from B
    # (sender-side loop prevention) rather than echoing B's own route.
    assert len(harness.peers["B"].updates) == 2
    assert harness.peers["B"].updates[-1].is_withdrawal


def test_fallback_to_alternate_on_withdrawal(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.peers["B"].announce("p0", ("B", "y", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0")
    harness.run()
    assert harness.router.best_route("p0").as_path == ("B", "y", "origin")
    # This is path exploration: C heard A's path, then B's worse path.
    assert [u.as_path for u in harness.peers["C"].updates] == [
        ("R", "A", "origin"),
        ("R", "B", "y", "origin"),
    ]


def test_looped_announcement_dropped(harness):
    harness.peers["A"].announce("p0", ("A", "R", "origin"))
    harness.run()
    assert harness.router.best_route("p0") is None


def test_withdrawal_for_unknown_prefix_ignored(harness):
    harness.peers["A"].withdraw("p-unknown")
    harness.run()
    assert harness.router.best_route("p-unknown") is None
    assert harness.peers["B"].updates == []


def test_origination_announces_everywhere(harness):
    harness.router.originate("mine")
    harness.run()
    for name in ("A", "B", "C"):
        assert harness.peers[name].updates[0].as_path == ("R",)
    assert harness.router.originates("mine")


def test_self_originated_route_preferred(harness):
    harness.peers["A"].announce("mine", ("A", "origin"))
    harness.run()
    harness.router.originate("mine")
    harness.run()
    assert harness.router.best_route("mine").as_path == ("R",)


def test_withdraw_origination(harness):
    harness.router.originate("mine")
    harness.run()
    harness.router.withdraw_origination("mine")
    harness.run()
    assert harness.peers["A"].updates[-1].is_withdrawal
    assert not harness.router.originates("mine")


def test_stats_counters(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0")
    harness.run()
    stats = harness.router.stats
    assert stats.updates_received == 2
    assert stats.announcements_received == 1
    assert stats.withdrawals_received == 1
    assert stats.best_path_changes == 2


# ----------------------------------------------------------------------
# damping behaviour
# ----------------------------------------------------------------------


def test_three_withdrawals_suppress_entry():
    harness = damped_harness()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    assert harness.router.damping.is_suppressed("A", "p0")


def test_suppressed_route_excluded_from_selection():
    harness = damped_harness()
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    peer.announce("p0", ("A", "origin"))
    harness.run()
    # A's (shorter) route is suppressed, so the longer B route wins.
    assert harness.router.best_route("p0").as_path == ("B", "x", "y", "origin")


def test_noisy_reuse_reselects_and_announces():
    harness = damped_harness()
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    peer.announce("p0", ("A", "origin"))
    harness.run()
    before = len(harness.peers["C"].updates)
    harness.engine.run()  # let the reuse timer fire
    assert harness.router.best_route("p0").as_path == ("A", "origin")
    assert harness.router.damping.reuse_events[-1].noisy is True
    assert len(harness.peers["C"].updates) > before


def test_silent_reuse_when_route_withdrawn():
    harness = damped_harness()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    assert harness.router.damping.is_suppressed("A", "p0")
    sent_before = len(harness.peers["B"].updates)
    harness.engine.run()  # reuse fires; entry is withdrawn -> silent
    assert harness.router.damping.reuse_events[-1].noisy is False
    assert len(harness.peers["B"].updates) == sent_before


def test_attribute_changes_charge_penalty():
    harness = damped_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"))
    harness.run()
    peer.announce("p0", ("A", "x", "origin"))
    harness.run()
    assert harness.router.damping.penalty_value("A", "p0") == pytest.approx(
        500.0, rel=0.01
    )


def test_reset_damping_clears_penalties():
    harness = damped_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"))
    harness.run()
    peer.withdraw("p0")
    harness.run()
    assert harness.router.damping.penalty_value("A", "p0") > 0
    harness.router.reset_damping()
    assert harness.router.damping.penalty_value("A", "p0") == 0.0
    assert harness.router.suppressed_entry_count() == 0


def test_reset_damping_reselects_released_entries():
    """Forgetting suppressions makes the released routes candidates
    again, so the Loc-RIB must follow them (the invariant the
    incremental decision rests on)."""
    harness = damped_harness()
    router = harness.router
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    peer.announce("p0", ("A", "origin"))
    harness.run()
    assert router.best_route("p0").as_path == ("B", "x", "y", "origin")
    router.reset_damping()
    winner = select_best(router._candidates("p0"), router._local_pref)
    assert winner[1].as_path == ("A", "origin")
    assert router.best_route("p0") == winner[1]
    harness.run()
    assert harness.peers["C"].updates[-1].as_path == ("R", "A", "origin")


# ----------------------------------------------------------------------
# one exported route per best-path change
# ----------------------------------------------------------------------


def announced(harness, prefix="p0"):
    """The router's Adj-RIB-Out routes for ``prefix``, by peer."""
    return {
        name: harness.router.rib_out(name).announced_route(prefix)
        for name in harness.peers
    }


def assert_one_shared_export(harness, learned_from, path):
    routes = announced(harness)
    assert routes.pop(learned_from) is None
    exported = list(routes.values())
    assert all(route is exported[0] for route in exported)
    assert exported[0] == Route("p0", ("R",) + path, "R")
    return exported[0]


def test_best_path_change_builds_one_exported_route(monkeypatch):
    harness = Harness(peers=("A", "B", "C", "D"))
    built = []
    init = Route.__init__

    def counting(route, *args, **kwargs):
        init(route, *args, **kwargs)
        built.append(route)

    monkeypatch.setattr(Route, "__init__", counting)
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    # One route into the Adj-RIB-In, one out for all three neighbours.
    assert [r.as_path for r in built] == [("A", "origin"), ("R", "A", "origin")]
    assert_one_shared_export(harness, "A", ("A", "origin"))


def test_exported_route_is_rebuilt_after_crash_and_restart():
    harness = Harness(peers=("A", "B", "C", "D"))
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    before = assert_one_shared_export(harness, "A", ("A", "origin"))
    harness.network.crash_router("R")
    harness.network.restart_router("R")
    assert set(announced(harness).values()) == {None}
    harness.peers["B"].announce("p0", ("B", "origin"))
    harness.run()
    after = assert_one_shared_export(harness, "B", ("B", "origin"))
    assert after is not before


def test_exported_route_survives_a_snapshot_round_trip():
    from repro.experiments.base import small_mesh_config
    from repro.workload.pulses import PulseSchedule
    from repro.workload.scenarios import WarmStateSnapshot

    scenario = WarmStateSnapshot.capture(small_mesh_config()).restore()
    prefix = scenario.config.prefix

    def owed(router, peer):
        """The export rebuilt from the Loc-RIB alone (shortest-path
        policy: only the loop check can hold a route back)."""
        best = router.best_route(prefix)
        if best is None or peer in best.as_path:
            return None
        return Route(prefix, (router.name,) + best.as_path, router.name)

    def exports():
        """Every announced Adj-RIB-Out route, checked against ``owed``."""
        sent = {}
        for router in scenario.routers.values():
            for peer in router.neighbors:
                route = router.rib_out(peer).announced_route(prefix)
                assert route == owed(router, peer)
                if route is not None:
                    assert route.as_path[0] == route.learned_from == router.name
                    sent[router.name, peer] = route
        return sent

    restored = exports()  # what the warm-up built, as unpickled
    scenario.run(PulseSchedule.regular(1, 60.0))
    rebuilt = exports()  # what the restored routers built since
    assert rebuilt.keys() == restored.keys()
    assert all(rebuilt[key] is not restored[key] for key in rebuilt)


def test_withdrawal_keeps_the_announced_length_for_the_preference_tag():
    """The selective-damping tag compares an announcement with the last
    one sent, also across a withdrawal in between."""
    harness = Harness()
    a = harness.peers["A"]
    a.announce("p0", ("A", "origin"))
    harness.run()
    a.withdraw("p0")
    harness.run()
    entry = harness.router.rib_out("C").entry("p0")
    assert entry.route is None and entry.last_announced_length == 3
    a.announce("p0", ("A", "x", "origin"))
    harness.run()
    first, withdrawal, second = harness.peers["C"].updates
    assert (first.preference.direction, first.preference.path_length) == (0, 3)
    assert withdrawal.is_withdrawal and withdrawal.preference is None
    assert (second.preference.direction, second.preference.path_length) == (-1, 4)
    assert entry.route.as_path == ("R", "A", "x", "origin")


# ----------------------------------------------------------------------
# sessions that are down
# ----------------------------------------------------------------------


def line_network(mrai: float = 0.0):
    """Three routers ``A - B - C``, nothing originated yet; only the
    middle one paces its announcements."""
    engine = Engine()
    rng = RngRegistry(1)
    network = Network(engine, rng)
    routers = {}
    for name, base in (("A", 0.0), ("B", mrai), ("C", 0.0)):
        config = RouterConfig(mrai=MraiConfig(base=base))
        routers[name] = network.add_node(BgpRouter(name, engine, rng, config=config))
    network.add_link("A", "B")
    network.add_link("B", "C")
    return engine, network, routers


def test_route_learned_while_a_link_is_down_is_announced_when_it_returns():
    """Regression: B used to record ``p`` as announced to C although the
    message was dropped ``link-down``; when the link came back the
    Adj-RIB-Out looked in sync and C never heard of ``p``."""
    engine, network, routers = line_network()
    drops = []
    network.add_drop_hook(lambda message, reason: drops.append(reason))
    network.set_link_state("B", "C", False)
    routers["A"].originate("p")
    engine.run()
    assert routers["B"].best_route("p").as_path == ("A",)
    # Nothing was sent into the dead session, so nothing claims to be.
    assert routers["B"].rib_out("C").announced_route("p") is None
    assert drops == []
    assert not routers["C"].has_route("p")
    network.set_link_state("B", "C", True)
    engine.run()
    assert routers["B"].rib_out("C").announced_route("p").as_path == ("B", "A")
    assert routers["C"].best_route("p").as_path == ("B", "A")


def test_session_down_drops_the_deltas_mrai_held_back():
    """A prefix deferred for a peer belongs to that session: after the
    link bounces the peer gets the full re-sync at once, not a flush of
    the old session's dirty set."""
    engine, network, routers = line_network(mrai=30.0)
    b = routers["B"]
    routers["A"].originate("p")
    engine.run(until=1.0)  # B announced p to C: C's MRAI timer runs
    routers["A"].originate("q")
    engine.run(until=2.0)
    assert b.mrai.pending_prefixes("C") == {"q"}
    network.set_link_state("B", "C", False)
    assert b.mrai.pending_prefixes("C") == set()
    assert b.mrai.may_send_now("C")
    assert b.rib_out("C").prefixes() == []
    network.set_link_state("B", "C", True)
    engine.run(until=3.0)
    # One goes out with the session, the other waits for the new timer.
    assert routers["C"].has_route("p") != routers["C"].has_route("q")
    engine.run()
    assert routers["C"].has_route("p") and routers["C"].has_route("q")
    assert not b.mrai.has_pending()


# ----------------------------------------------------------------------
# RCN behaviour
# ----------------------------------------------------------------------


def rc(seq: int, status: str = "down") -> RootCause:
    return RootCause(link=("origin", "isp"), status=status, seq=seq)


def rcn_harness() -> Harness:
    return Harness(
        config=RouterConfig(
            damping=CISCO_DEFAULTS, rcn_enabled=True, mrai=MraiConfig(base=0.0)
        )
    )


def test_rcn_same_cause_charges_once():
    harness = rcn_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"), cause=rc(1, "up"))
    harness.run()
    # Three different-looking updates, all caused by the same flap.
    peer.withdraw("p0", cause=rc(2, "down"))
    harness.run()
    peer.announce("p0", ("A", "x", "origin"), cause=rc(2, "down"))
    harness.run()
    peer.withdraw("p0", cause=rc(2, "down"))
    harness.run()
    # Only the first update with cause seq=2 charged (down -> +1000).
    assert harness.router.damping.penalty_value("A", "p0") == pytest.approx(
        1000.0, rel=0.01
    )


def test_rcn_charges_by_flap_type_not_update_kind():
    """An 'up' cause carried by an attribute change charges the
    re-announcement penalty (0 for Cisco), not the attribute penalty."""
    harness = rcn_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"), cause=rc(1, "up"))
    harness.run()
    peer.announce("p0", ("A", "x", "origin"), cause=rc(2, "up"))
    harness.run()
    assert harness.router.damping.penalty_value("A", "p0") == 0.0


def test_rcn_outgoing_updates_carry_cause():
    harness = rcn_harness()
    cause = rc(5, "up")
    harness.peers["A"].announce("p0", ("A", "origin"), cause=cause)
    harness.run()
    forwarded = harness.peers["B"].updates[0]
    assert forwarded.root_cause == cause


def test_plain_router_propagates_cause_without_using_it():
    harness = damped_harness()  # rcn_enabled=False
    cause = rc(1, "down")
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0", cause=cause)
    harness.run()
    assert harness.peers["B"].updates[-1].root_cause == cause
    # Plain damping still charged the withdrawal.
    assert harness.router.damping.penalty_value("A", "p0") == pytest.approx(
        1000.0, rel=0.01
    )


# ----------------------------------------------------------------------
# MRAI behaviour
# ----------------------------------------------------------------------


def test_mrai_rate_limits_announcements():
    harness = Harness(config=RouterConfig(mrai=MraiConfig(base=30.0)))
    a = harness.peers["A"]
    a.announce("p0", ("A", "x", "y", "origin"))
    harness.engine.run(until=1.0)
    assert len(harness.peers["C"].updates) == 1
    # A better path arrives immediately: the announcement must wait for
    # the MRAI timer.
    a.announce("p0", ("A", "origin"))
    harness.engine.run(until=2.0)
    assert len(harness.peers["C"].updates) == 1
    harness.engine.run(until=60.0)
    assert len(harness.peers["C"].updates) == 2
    assert harness.peers["C"].updates[-1].as_path == ("R", "A", "origin")


def test_mrai_withdrawals_bypass_by_default():
    harness = Harness(config=RouterConfig(mrai=MraiConfig(base=30.0)))
    a = harness.peers["A"]
    a.announce("p0", ("A", "origin"))
    harness.engine.run(until=1.0)
    a.withdraw("p0")
    harness.engine.run(until=2.0)
    assert harness.peers["C"].updates[-1].is_withdrawal


def test_mrai_flush_skips_stale_changes():
    """If the best path flaps back to the already-announced route before
    the MRAI expires, nothing extra is sent."""
    harness = Harness(config=RouterConfig(mrai=MraiConfig(base=30.0)))
    a = harness.peers["A"]
    a.announce("p0", ("A", "origin"))
    harness.engine.run(until=1.0)
    a.announce("p0", ("A", "x", "origin"))
    harness.engine.run(until=2.0)
    a.announce("p0", ("A", "origin"))
    harness.engine.run()  # MRAI fires; rib-out already matches
    announcements = [u for u in harness.peers["C"].updates if u.is_announcement]
    assert [u.as_path for u in announcements] == [("R", "A", "origin")]
