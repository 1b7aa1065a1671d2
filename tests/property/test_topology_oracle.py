"""The topology layer checked against networkx as an independent oracle.

The simulator builds its graphs without networkx; these tests hold the
vendored Barabási–Albert generator, the BFS, the connectivity and
largest-component checks and the provider-cycle check to networkx's
answers, and pin ``topology_to_dict`` of every committed topology.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import TopologyError
from repro.topology.internet import internet_node_name, internet_topology
from repro.topology.io import load_topology, topology_to_dict
from repro.topology.mesh import mesh_topology
from repro.topology.model import Topology, bfs_depths, build_adjacency
from repro.topology.relationships import RelationshipMap
from repro.topology.scale import (
    ingest_as_relationships,
    powerlaw_topology,
    write_as_relationships,
)

FIXTURE = (
    pathlib.Path(repro.__file__).resolve().parents[2]
    / "benchmarks" / "fixtures" / "internet1k.json"
)


def _networkx_internet_edges(nodes, attachment, seed):
    """The Internet graph as built when networkx generated it."""
    base = nx.barabasi_albert_graph(nodes, attachment, seed=seed)
    graph = nx.relabel_nodes(base, {i: internet_node_name(i) for i in base.nodes})
    return sorted(tuple(sorted(edge)) for edge in graph.edges)


@pytest.mark.parametrize(
    "nodes, attachment, seed",
    [
        (100, 2, 7),  # internet100_config
        (208, 2, 7),  # internet208_config
        (3, 1, 0),
        (3, 2, 1),
        (50, 1, 11),
        (120, 4, 42),
        (1200, 2, 5),  # names wider than three digits
    ],
)
def test_vendored_generator_matches_networkx(nodes, attachment, seed):
    topology = internet_topology(nodes, attachment=attachment, seed=seed)
    assert topology.edges == _networkx_internet_edges(nodes, attachment, seed)


@given(
    nodes=st.integers(min_value=3, max_value=60),
    attachment=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_vendored_generator_matches_networkx_on_any_parameters(nodes, attachment, seed):
    attachment = min(attachment, nodes - 1)
    topology = internet_topology(nodes, attachment=attachment, seed=seed)
    assert topology.edges == _networkx_internet_edges(nodes, attachment, seed)


@st.composite
def graphs(draw):
    """Node names and a list of distinct undirected edges (maybe disconnected)."""
    count = draw(st.integers(min_value=1, max_value=12))
    names = [f"n{i}" for i in range(count)]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda pair: pair[0] != pair[1]
    )
    edges = draw(
        st.lists(pairs, max_size=3 * count, unique_by=lambda pair: frozenset(pair))
    )
    return names, edges


def _networkx_graph(names, edges):
    graph = nx.Graph()
    graph.add_nodes_from(names)
    graph.add_edges_from(edges)
    return graph


@given(graphs())
def test_bfs_depths_match_networkx(graph_spec):
    names, edges = graph_spec
    adjacency = build_adjacency(names, edges)
    graph = _networkx_graph(names, edges)
    for source in names:
        expected = nx.single_source_shortest_path_length(graph, source)
        # Same neighbour order, so the same visiting order too.
        assert list(bfs_depths(adjacency, source).items()) == list(expected.items())


@given(graphs())
def test_connectivity_matches_networkx(graph_spec):
    names, edges = graph_spec
    adjacency = build_adjacency(names, edges)
    if nx.is_connected(_networkx_graph(names, edges)):
        assert Topology(name="g", adjacency=adjacency).node_count == len(names)
    else:
        with pytest.raises(TopologyError, match="connected"):
            Topology(name="g", adjacency=adjacency)


@given(graphs())
@settings(deadline=None)
def test_largest_component_matches_networkx(tmp_path_factory, graph_spec):
    names, edges = graph_spec
    if not edges:
        return
    path = tmp_path_factory.mktemp("caida") / "rel.txt"
    numbered = [(int(a[1:]), int(b[1:])) for a, b in edges]
    path.write_text("".join(f"{a}|{b}|0\n" for a, b in numbered), encoding="utf-8")
    topology = ingest_as_relationships(path, with_relationships=False)
    graph = nx.Graph([(f"as{a}", f"as{b}") for a, b in numbered])
    keep = max(nx.connected_components(graph), key=lambda c: (len(c), sorted(c)))
    expected = graph.subgraph(keep)
    assert topology.nodes == sorted(expected.nodes)
    assert topology.edges == sorted(tuple(sorted(edge)) for edge in expected.edges)


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
        max_size=20,
        unique_by=lambda pair: frozenset(pair),
    )
)
def test_provider_cycle_check_matches_networkx(pairs):
    relationships = RelationshipMap()
    for provider, customer in pairs:
        relationships.set_provider(f"n{provider}", f"n{customer}")
    digraph = nx.DiGraph([(f"n{c}", f"n{p}") for p, c in pairs])
    nodes = [f"n{i}" for i in range(8)]
    if nx.is_directed_acyclic_graph(digraph):
        relationships.validate_acyclic(nodes)
    else:
        with pytest.raises(TopologyError, match="cycle"):
            relationships.validate_acyclic(nodes)


def _caida_round_trip(topology, directory):
    path = directory / "rel.txt"
    write_as_relationships(topology, path)
    return ingest_as_relationships(path, name=topology.name)


#: sha256 of ``json.dumps(topology_to_dict(t), sort_keys=True)`` (without
#: the ingest's source path) as networkx-built topologies produced them.
PINNED_DOCUMENTS = {
    "mesh10x10": "f6a8a95c2885225af0915ae9563f4ec286cdd3bca4970854795a0109ca32fb8c",
    "mesh2x5": "ebfcc2446cebb4249e92d0ac888a86fd8c4d4b57ce04bcf05517c91a8988fae7",
    "internet100": "56062e1a93c81f4b2ec7cf8856467f3ffb75767e32c1f2d02f430a303d6953fd",
    "internet208_relationships": "84be4e9337d7a7fc97e56816625caa3f1f8bec19b5fb5e6630e074cbe6ebce80",
    "powerlaw1000": "a7f2cd53dc04a94ceba82211013ab8ebf5b5e0dfe5b0d79ee6d5ccf3dac6340e",
    "internet1k_fixture": "a98c385ca1506ef7c86ea37cdac2655da01e27ff58c4d89a7171d1aa83b133ee",
    "internet1k_caida": "95105ab44b9986d1b86be3aeb076c21fe1157ad8448b12d249133a4a27237f0c",
}

BUILDERS = {
    "mesh10x10": lambda tmp: mesh_topology(10, 10),
    "mesh2x5": lambda tmp: mesh_topology(2, 5),
    "internet100": lambda tmp: internet_topology(100, seed=7),
    "internet208_relationships": lambda tmp: internet_topology(
        208, seed=7, with_relationships=True
    ),
    "powerlaw1000": lambda tmp: powerlaw_topology(1000),
    "internet1k_fixture": lambda tmp: load_topology(FIXTURE),
    "internet1k_caida": lambda tmp: _caida_round_trip(load_topology(FIXTURE), tmp),
}


@pytest.mark.parametrize("case", sorted(PINNED_DOCUMENTS))
def test_topology_documents_are_pinned(case, tmp_path):
    document = topology_to_dict(BUILDERS[case](tmp_path))
    document["metadata"].pop("source", None)
    payload = json.dumps(document, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == PINNED_DOCUMENTS[case]
