"""Unit tests for the decision process and routing policies."""

from __future__ import annotations

import pytest

from repro.bgp.attrs import Route
from repro.bgp.decision import preference_key, rank_candidates, select_best
from repro.bgp.policy import (
    NoValleyPolicy,
    RoutingPolicy,
    ShortestPathPolicy,
)
from repro.errors import TopologyError
from repro.topology.relationships import RelationshipMap


def route(peer: str, *path: str) -> tuple:
    return (peer, Route(prefix="p0", as_path=(peer,) + tuple(path), learned_from=peer))


def constant_pref(peer: str, r: Route) -> int:
    del peer, r
    return 100


class TestSelectBest:
    def test_empty_candidates(self):
        assert select_best([], constant_pref) is None

    def test_shortest_path_wins(self):
        short = route("a", "o")
        long = route("b", "x", "o")
        assert select_best([long, short], constant_pref) == short

    def test_tie_broken_by_lowest_peer_name(self):
        first = route("a", "o")
        second = route("b", "o")
        assert select_best([second, first], constant_pref) == first

    def test_higher_local_pref_beats_shorter_path(self):
        preferred = route("z", "w", "x", "o")  # longer but higher pref
        short = route("a", "o")

        def pref(peer: str, r: Route) -> int:
            del r
            return 300 if peer == "z" else 100

        assert select_best([short, preferred], pref) == preferred

    def test_selection_independent_of_order(self):
        candidates = [route("c", "x", "o"), route("a", "o"), route("b", "o")]
        best_forward = select_best(candidates, constant_pref)
        best_reverse = select_best(list(reversed(candidates)), constant_pref)
        assert best_forward == best_reverse

    def test_rank_candidates_total_order(self):
        candidates = [route("c", "x", "o"), route("a", "o"), route("b", "o")]
        ranked = rank_candidates(candidates, constant_pref)
        assert [peer for peer, _ in ranked] == ["a", "b", "c"]

    def test_preference_key_orders_min_best(self):
        peer_a, route_a = route("a", "o")
        peer_c, route_c = route("c", "x", "o")
        assert preference_key(peer_a, route_a, constant_pref) < preference_key(
            peer_c, route_c, constant_pref
        )


class TestShortestPathPolicy:
    def test_constant_local_pref(self):
        policy = ShortestPathPolicy()
        _, r = route("a", "o")
        assert policy.local_pref("me", "a", r) == 100

    def test_export_everywhere(self):
        policy = ShortestPathPolicy()
        _, r = route("a", "o")
        assert policy.permits_export("me", r, "anyone")

    def test_policy_name(self):
        assert ShortestPathPolicy().name == "ShortestPathPolicy"
        assert isinstance(ShortestPathPolicy(), RoutingPolicy)


class TestNoValleyPolicy:
    @pytest.fixture
    def policy(self):
        relationships = RelationshipMap()
        relationships.set_provider("me", "cust")
        relationships.set_peers("me", "peer1")
        relationships.set_provider("prov", "me")
        relationships.set_provider("me", "cust2")
        return NoValleyPolicy(relationships.relationship)

    def r(self, learned_from: str) -> Route:
        return Route(prefix="p0", as_path=(learned_from, "o"), learned_from=learned_from)

    def test_prefer_customer_over_peer_over_provider(self, policy):
        assert policy.local_pref("me", "cust", self.r("cust")) == 300
        assert policy.local_pref("me", "peer1", self.r("peer1")) == 200
        assert policy.local_pref("me", "prov", self.r("prov")) == 100

    def test_customer_route_exported_everywhere(self, policy):
        r = self.r("cust")
        for to_peer in ("peer1", "prov", "cust2"):
            assert policy.permits_export("me", r, to_peer)

    def test_peer_route_only_to_customers(self, policy):
        r = self.r("peer1")
        assert policy.permits_export("me", r, "cust")
        assert not policy.permits_export("me", r, "prov")

    def test_provider_route_only_to_customers(self, policy):
        r = self.r("prov")
        assert policy.permits_export("me", r, "cust2")
        assert not policy.permits_export("me", r, "peer1")

    def test_self_originated_exported_everywhere(self, policy):
        own = Route(prefix="p0", as_path=("me",), learned_from="me")
        for to_peer in ("cust", "peer1", "prov"):
            assert policy.permits_export("me", own, to_peer)

    def test_missing_relationship_raises(self, policy):
        with pytest.raises(TopologyError):
            policy.local_pref("me", "stranger", self.r("stranger"))

    def test_prefer_customer_disabled(self):
        relationships = RelationshipMap()
        relationships.set_provider("me", "cust")
        policy = NoValleyPolicy(relationships.relationship, prefer_customer=False)
        r = Route(prefix="p0", as_path=("cust", "o"), learned_from="cust")
        assert policy.local_pref("me", "cust", r) == 100
