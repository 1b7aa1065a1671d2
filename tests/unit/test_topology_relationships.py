"""Unit tests for relationship assignment (Figure 15 substrate)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.bgp.policy import Relationship
from repro.errors import TopologyError
from repro.topology.relationships import RelationshipMap, assign_relationships


class TestRelationshipMap:
    def test_provider_customer_views(self):
        relationships = RelationshipMap()
        relationships.set_provider("isp", "cust")
        assert relationships.relationship("isp", "cust") is Relationship.CUSTOMER
        assert relationships.relationship("cust", "isp") is Relationship.PROVIDER

    def test_peer_views(self):
        relationships = RelationshipMap()
        relationships.set_peers("a", "b")
        assert relationships.relationship("a", "b") is Relationship.PEER
        assert relationships.relationship("b", "a") is Relationship.PEER

    def test_missing_relationship_raises(self):
        relationships = RelationshipMap()
        with pytest.raises(TopologyError):
            relationships.relationship("a", "b")

    def test_conflicting_provider_directions_rejected(self):
        relationships = RelationshipMap()
        relationships.set_provider("a", "b")
        with pytest.raises(TopologyError):
            relationships.set_provider("b", "a")

    def test_peer_conflicts_with_provider(self):
        relationships = RelationshipMap()
        relationships.set_provider("a", "b")
        with pytest.raises(TopologyError):
            relationships.set_peers("a", "b")
        relationships2 = RelationshipMap()
        relationships2.set_peers("a", "b")
        with pytest.raises(TopologyError):
            relationships2.set_provider("a", "b")

    def test_self_relationship_rejected(self):
        relationships = RelationshipMap()
        with pytest.raises(TopologyError):
            relationships.set_provider("a", "a")
        with pytest.raises(TopologyError):
            relationships.set_peers("a", "a")

    def test_listings(self):
        relationships = RelationshipMap()
        relationships.set_provider("isp", "c1")
        relationships.set_provider("isp", "c2")
        relationships.set_provider("tier1", "isp")
        relationships.set_peers("isp", "other")
        assert relationships.relationship("isp", "c1") is Relationship.CUSTOMER
        assert relationships.relationship("isp", "c2") is Relationship.CUSTOMER
        assert relationships.providers_of("isp") == ["tier1"]
        assert relationships.relationship("isp", "other") is Relationship.PEER
        assert relationships.provider_edge_count == 3
        assert relationships.peer_edge_count == 1

    def test_cycle_detection(self):
        relationships = RelationshipMap()
        relationships.set_provider("a", "b")
        relationships.set_provider("b", "c")
        relationships.set_provider("c", "a")
        with pytest.raises(TopologyError):
            relationships.validate_acyclic(["a", "b", "c"])


class TestAssignment:
    def test_every_edge_assigned(self):
        graph = nx.barabasi_albert_graph(60, 2, seed=1)
        graph = nx.relabel_nodes(graph, {i: f"as{i}" for i in graph.nodes})
        relationships = assign_relationships(graph)
        for u, v in graph.edges:
            assert relationships.has_relationship(u, v)

    def test_provider_digraph_acyclic(self):
        graph = nx.barabasi_albert_graph(80, 2, seed=2)
        graph = nx.relabel_nodes(graph, {i: f"as{i}" for i in graph.nodes})
        relationships = assign_relationships(graph)
        relationships.validate_acyclic(graph.nodes)  # must not raise

    def test_every_non_root_has_a_provider(self):
        """The BFS construction guarantees a provider chain to the root,
        which in turn guarantees valley-free reachability."""
        graph = nx.barabasi_albert_graph(60, 2, seed=3)
        graph = nx.relabel_nodes(graph, {i: f"as{i}" for i in graph.nodes})
        relationships = assign_relationships(graph, root="as0")
        orphans = [
            node
            for node in graph.nodes
            if node != "as0" and not relationships.providers_of(node)
        ]
        assert orphans == []

    def test_root_has_no_provider(self):
        graph = nx.cycle_graph(6)
        graph = nx.relabel_nodes(graph, {i: f"n{i}" for i in graph.nodes})
        relationships = assign_relationships(graph, root="n0")
        assert relationships.providers_of("n0") == []

    def test_same_depth_edges_are_peer(self):
        # A 4-cycle rooted at n0: n1 and n3 are depth 1, n2 depth 2; the
        # edges n1-n2 and n3-n2 cross depths, and there is no same-depth
        # edge. A triangle gives one: root n0, n1/n2 both depth 1.
        graph = nx.relabel_nodes(nx.complete_graph(3), {0: "n0", 1: "n1", 2: "n2"})
        relationships = assign_relationships(graph, root="n0")
        assert relationships.relationship("n1", "n2") is Relationship.PEER
        assert relationships.relationship("n0", "n1") is Relationship.CUSTOMER

    def test_default_root_is_highest_degree(self):
        graph = nx.star_graph(5)  # node 0 is the hub
        graph = nx.relabel_nodes(graph, {i: f"n{i}" for i in graph.nodes})
        relationships = assign_relationships(graph)
        assert relationships.providers_of("n0") == []
        assert relationships.provider_edge_count == 5

    def test_unknown_root_rejected(self):
        base = nx.path_graph(3)
        graph = nx.relabel_nodes(base, {i: f"n{i}" for i in base.nodes})
        with pytest.raises(TopologyError):
            assign_relationships(graph, root="ghost")

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        graph.add_edge("c", "d")
        with pytest.raises(TopologyError):
            assign_relationships(graph)
