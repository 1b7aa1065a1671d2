"""Unit tests for mesh and Internet-derived topologies."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import TopologyError
from repro.topology.internet import internet_topology, pick_isp
from repro.topology.mesh import mesh_node_name, mesh_topology


class TestMesh:
    def test_paper_mesh_dimensions(self):
        """The paper's setup: 100 nodes, 200 links (torus degree 4)."""
        topology = mesh_topology(10, 10)
        assert topology.node_count == 100
        assert topology.edge_count == 200
        assert all(topology.degree(n) == 4 for n in topology.nodes)

    def test_all_nodes_topologically_equal(self):
        """Every node of a torus has the same eccentricity."""
        topology = mesh_topology(5, 5)
        eccentricities = {topology.eccentricity(n) for n in topology.nodes}
        assert len(eccentricities) == 1

    def test_wraparound_edges_exist(self):
        topology = mesh_topology(4, 4)
        assert topology.graph.has_edge(mesh_node_name(0, 0), mesh_node_name(3, 0))
        assert topology.graph.has_edge(mesh_node_name(0, 0), mesh_node_name(0, 3))

    def test_connected(self):
        topology = mesh_topology(3, 7)
        assert topology.node_count == 21

    def test_rectangular(self):
        topology = mesh_topology(2, 5)
        assert topology.node_count == 10
        # 2-row torus: vertical wraparound edge coincides with grid edge.
        assert all(topology.degree(n) in (3, 4) for n in topology.nodes)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            mesh_topology(1, 5)
        with pytest.raises(TopologyError):
            mesh_topology(5, 1)

    def test_hop_distance_torus(self):
        topology = mesh_topology(10, 10)
        # Wraparound: (0,0) to (0,9) is 1 hop, not 9.
        assert topology.hop_distance(mesh_node_name(0, 0), mesh_node_name(0, 9)) == 1
        assert topology.hop_distance(mesh_node_name(0, 0), mesh_node_name(0, 5)) == 5

    def test_nodes_at_distance(self):
        topology = mesh_topology(10, 10)
        at_one = topology.nodes_at_distance(mesh_node_name(0, 0), 1)
        assert len(at_one) == 4

    def test_metadata(self):
        topology = mesh_topology(4, 6)
        assert topology.metadata == {"rows": 4, "cols": 6}
        assert topology.name == "mesh-4x6"


class TestInternet:
    def test_size_and_connectivity(self):
        topology = internet_topology(100, seed=7)
        assert topology.node_count == 100
        assert topology.name == "internet-100"

    def test_long_tailed_degree_distribution(self):
        """Most nodes are low-degree stubs; a few hubs dominate."""
        topology = internet_topology(200, seed=7)
        histogram = Counter(degree for _, degree in topology.graph.degree)
        stubs = sum(count for degree, count in histogram.items() if degree <= 3)
        assert stubs > topology.node_count / 2
        assert max(histogram) >= 4 * min(histogram)

    def test_deterministic_for_seed(self):
        a = internet_topology(50, seed=3)
        b = internet_topology(50, seed=3)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = internet_topology(50, seed=3)
        b = internet_topology(50, seed=4)
        assert a.edges != b.edges

    def test_relationships_on_request(self):
        topology = internet_topology(50, seed=3, with_relationships=True)
        assert topology.relationships is not None
        # Every edge has a relationship.
        for u, v in topology.edges:
            assert topology.relationships.has_relationship(u, v)

    def test_no_relationships_by_default(self):
        assert internet_topology(50, seed=3).relationships is None

    def test_extra_peering_increases_edges(self):
        base = internet_topology(100, seed=7)
        enriched = internet_topology(100, seed=7, extra_peering_fraction=0.2)
        assert enriched.edge_count > base.edge_count

    def test_validation(self):
        with pytest.raises(TopologyError):
            internet_topology(2)
        with pytest.raises(TopologyError):
            internet_topology(10, attachment=0)
        with pytest.raises(TopologyError):
            internet_topology(10, attachment=10)
        with pytest.raises(TopologyError):
            internet_topology(10, extra_peering_fraction=-0.1)

    def test_pick_isp_in_topology(self):
        import random

        topology = internet_topology(50, seed=3)
        isp = pick_isp(topology, random.Random(1))
        assert isp in topology.nodes
