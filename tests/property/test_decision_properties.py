"""Property-based tests for the decision process."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attrs import Route
from repro.bgp.decision import rank_candidates, select_best
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import NoValleyPolicy, Relationship
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.params import CISCO_DEFAULTS
from repro.net.link import LinkConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

as_names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def candidate_lists(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    candidates = []
    used_peers = set()
    for i in range(count):
        peer = f"peer{i}"
        used_peers.add(peer)
        path_tail = draw(
            st.lists(as_names, min_size=0, max_size=5)
        )
        path = (peer,) + tuple(f"x{j}-{p}" for j, p in enumerate(path_tail)) + ("origin",)
        candidates.append(
            (peer, Route(prefix="p0", as_path=path, learned_from=peer))
        )
    return candidates


def constant_pref(peer: str, route: Route) -> int:
    del peer, route
    return 100


@given(candidates=candidate_lists())
def test_best_is_first_of_ranking(candidates):
    best = select_best(candidates, constant_pref)
    ranked = rank_candidates(candidates, constant_pref)
    assert best == ranked[0]


@given(candidates=candidate_lists(), seed=st.integers(min_value=0, max_value=999))
def test_selection_is_permutation_invariant(candidates, seed):
    import random

    shuffled = list(candidates)
    random.Random(seed).shuffle(shuffled)
    assert select_best(candidates, constant_pref) == select_best(
        shuffled, constant_pref
    )


@given(candidates=candidate_lists())
def test_best_has_minimal_length_under_constant_pref(candidates):
    best = select_best(candidates, constant_pref)
    assert best is not None
    shortest = min(route.path_length for _, route in candidates)
    assert best[1].path_length == shortest


@given(candidates=candidate_lists())
def test_ranking_is_total_and_stable(candidates):
    ranked = rank_candidates(candidates, constant_pref)
    assert len(ranked) == len(candidates)
    assert set(peer for peer, _ in ranked) == set(peer for peer, _ in candidates)
    lengths = [route.path_length for _, route in ranked]
    # Within equal local-pref, ranking is by path length then peer name.
    assert lengths == sorted(lengths)


@given(candidates=candidate_lists(), boost_index=st.integers(min_value=0, max_value=7))
def test_higher_pref_always_wins(candidates, boost_index):
    boosted_peer = candidates[boost_index % len(candidates)][0]

    def pref(peer: str, route: Route) -> int:
        del route
        return 500 if peer == boosted_peer else 100

    best = select_best(candidates, pref)
    assert best is not None
    assert best[0] == boosted_peer


# ----------------------------------------------------------------------
# incremental decision and the export pass: differentials against the
# full scan and against an export rebuilt from the Loc-RIB alone
# ----------------------------------------------------------------------

ROUTER = "R"
PREFIXES = ("p0", "p1")
_RELATIONSHIPS = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)

#: One step: the kind picks which of the other fields it reads. Kinds
#: repeat to weight them — updates (and whole flaps, which is what gets an
#: entry suppressed) dominate; quiet spells, link failures and repairs,
#: bounces and resets punctuate.
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["announce"] * 4
            + ["withdraw"] * 3
            + ["flap"] * 3
            + ["advance"] * 2
            + ["link_toggle"] * 2
            + ["duplicate", "bounce", "reset_damping"]
        ),
        st.integers(min_value=0, max_value=5),  # peer
        st.sampled_from(["p0", "p0", "p0", "p1"]),
        st.lists(st.sampled_from(["x", "y", "z", ROUTER]), max_size=3, unique=True),
        # Seconds of quiet: short ones keep MRAI and reuse timers armed,
        # long ones let suppressed entries come back.
        st.sampled_from([5.0, 40.0, 900.0, 4000.0]),
        st.integers(min_value=1, max_value=4),  # withdraw/announce rounds of a flap
    ),
    min_size=10,
    max_size=40,
)


class _Peer(Node):
    def handle_message(self, message: Message) -> None:
        del message


def _expected_export(router: BgpRouter, peer: str, prefix: str):
    """What ``router`` owes ``peer``, rebuilt from the Loc-RIB alone (the
    router's own pass serves a cached route). The router under test
    originates nothing, so every route is prepended."""
    best = router.best_route(prefix)
    if best is None:
        return None
    path = (router.name,) + best.as_path
    if peer in path or not router.policy.permits_export(router.name, best, peer):
        return None
    # The fields, not a Route: building one here would count as an export.
    return (prefix, path, router.name)


def _check_decision(router: BgpRouter) -> None:
    """Loc-RIB == full-scan winner; Adj-RIB-Out == the route owed,
    wherever MRAI holds nothing back — and empty where the session is
    down."""
    for prefix in PREFIXES:
        winner = select_best(router._candidates(prefix), router._local_pref)
        assert router.best_route(prefix) == (winner[1] if winner else None)
        for peer in router.neighbors:
            route = router.rib_out(peer).announced_route(prefix)
            announced = route and (route.prefix, route.as_path, route.learned_from)
            if not router.network.link(ROUTER, peer).up:
                assert announced is None, (peer, prefix)
            elif prefix not in router.mrai.pending_prefixes(peer):
                assert announced == _expected_export(router, peer, prefix), (peer, prefix)


@contextmanager
def _one_export_per_best_path_change(router: BgpRouter):
    """Fail the moment a second exported route is built for a prefix
    while its Loc-RIB route has not changed (exported routes are the
    ones learned from ourselves; the router under test originates
    nothing, and every Loc-RIB change bumps ``best_path_changes``)."""
    init = Route.__init__
    built = set()

    def counting(route, prefix, as_path, learned_from):
        init(route, prefix, as_path, learned_from)
        if learned_from == router.name:
            key = (prefix, router.stats.best_path_changes)
            assert key not in built, (prefix, as_path)
            built.add(key)

    with mock.patch.object(Route, "__init__", counting):
        yield


def _drive(peer_count, no_valley, steps):
    """Run ``steps`` against one router with ``peer_count`` stub peers,
    checking both differentials after every step."""
    engine = Engine()
    rng = RngRegistry(11)
    network = Network(engine, rng)
    peers = [f"n{i}" for i in range(peer_count)]
    policy = None
    if no_valley:
        policy = NoValleyPolicy(
            lambda router, peer: _RELATIONSHIPS[peers.index(peer) % 3]
        )
    router = BgpRouter(
        ROUTER, engine, rng, policy=policy, config=RouterConfig(damping=CISCO_DEFAULTS)
    )
    network.add_node(router)
    nodes = {}
    for name in peers:
        nodes[name] = network.add_node(_Peer(name))
        network.add_link(ROUTER, name, LinkConfig(base_delay=0.001, jitter=0.0))
    last_sent = {}

    def send(name, prefix, path):
        last_sent[name] = (prefix, path)
        nodes[name].send(ROUTER, UpdateMessage(prefix, path))
        engine.run(until=engine.now + 0.01)  # delivered, MRAI still armed

    with _one_export_per_best_path_change(router):
        for kind, peer_index, prefix, tail, quiet, rounds in steps:
            name = peers[peer_index % peer_count]
            path = (name,) + tuple(tail) + ("o",)
            if kind == "announce":
                send(name, prefix, path)
            elif kind == "withdraw":
                send(name, prefix, None)
            elif kind == "flap":
                for _ in range(rounds):
                    send(name, prefix, None)
                    send(name, prefix, path)
            elif kind == "duplicate" and name in last_sent:
                send(name, *last_sent[name])
            elif kind == "bounce":
                network.reset_session(ROUTER, name)
            elif kind == "link_toggle":
                network.set_link_state(
                    ROUTER, name, not network.link(ROUTER, name).up
                )
            elif kind == "advance":
                engine.run(until=engine.now + quiet)
            elif kind == "reset_damping":
                router.reset_damping()
            _check_decision(router)

        engine.run()  # every MRAI and reuse timer has fired
        assert not router.mrai.has_pending()
        _check_decision(router)


@given(
    peer_count=st.integers(min_value=3, max_value=6),
    no_valley=st.booleans(),
    steps=steps,
)
@settings(max_examples=150, deadline=None)
def test_incremental_decision_matches_full_scan(peer_count, no_valley, steps):
    _drive(peer_count, no_valley, steps)


# -- seeded mutants of the export pass: each must trip the differential --

#: Two routes learned, the better one withdrawn and re-announced, with a
#: link failing and returning in between.
_MUTANT_SCRIPT = [
    ("announce", 0, "p0", ["x"], 0.0, 1),
    ("announce", 1, "p0", [], 0.0, 1),
    ("advance", 0, "p0", [], 40.0, 1),
    ("link_toggle", 3, "p0", [], 0.0, 1),
    ("withdraw", 1, "p0", [], 0.0, 1),
    ("advance", 0, "p0", [], 40.0, 1),
    ("withdraw", 0, "p0", [], 0.0, 1),
    ("link_toggle", 3, "p0", [], 0.0, 1),
    ("announce", 1, "p0", [], 0.0, 1),
    ("advance", 0, "p0", [], 40.0, 1),
]


class _AlwaysUp:
    """A link that claims to be up, whatever the real one says."""

    up = True

    def __init__(self, link):
        self.send = link.send


def _skip_last_peer(real):
    def _export(self, prefix, peers, paced=True):
        peers = list(peers)
        return real(self, prefix, peers[:-1] if len(peers) > 1 else peers, paced)

    return _export


def _export_built_per_peer(real):
    def _export(self, prefix, peers, paced=True):
        sent = False
        for session in list(peers):
            self._exported.pop(prefix, None)
            sent = real(self, prefix, (session,), paced) or sent
        return sent

    return _export


def _down_session_not_skipped(real):
    def _export(self, prefix, peers, paced=True):
        return real(self, prefix, [(p, _AlwaysUp(link)) for p, link in peers], paced)

    return _export


def _entry_not_updated_on_withdrawal(real):
    def _send_withdrawal(self, link, entry, prefix):
        route = entry.route
        real(self, link, entry, prefix)
        entry.route = route

    return _send_withdrawal


def test_mutant_script_passes_unmutated():
    _drive(4, False, _MUTANT_SCRIPT)


_MUTANTS = {
    "export skipped for the last peer": ("_export", _skip_last_peer),
    "exported route built per peer": ("_export", _export_built_per_peer),
    "down-session peer not skipped": ("_export", _down_session_not_skipped),
    "entry not updated on withdrawal": (
        "_send_withdrawal",
        _entry_not_updated_on_withdrawal,
    ),
}


@pytest.mark.parametrize("attribute, mutate", _MUTANTS.values(), ids=list(_MUTANTS))
def test_export_pass_mutants_fail_the_differential(attribute, mutate, monkeypatch):
    monkeypatch.setattr(BgpRouter, attribute, mutate(getattr(BgpRouter, attribute)))
    with pytest.raises(AssertionError):
        _drive(4, False, _MUTANT_SCRIPT)
