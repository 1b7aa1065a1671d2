"""Property-based tests for the scale pipeline: AS-path interning and
the power-law generator's determinism contract."""

from __future__ import annotations

import pickle

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.paths import PathTable
from repro.topology.scale import powerlaw_topology

as_names = st.integers(min_value=0, max_value=40).map(lambda n: f"as{n}")
paths = st.lists(as_names, min_size=1, max_size=6).map(tuple)


@given(st.lists(paths, min_size=1, max_size=40))
def test_equal_paths_become_identical_objects(path_list):
    table = PathTable()
    canon = [table.canonical(p) for p in path_list]
    for a, pa in zip(canon, path_list):
        for b, pb in zip(canon, path_list):
            if pa == pb:
                assert a is b
            else:
                assert a != b
    # Exactly one entry per distinct path.
    assert len(table) == len(set(path_list))
    assert all(path in table for path in path_list)


@given(st.lists(paths, min_size=1, max_size=40))
def test_ids_are_stable_across_pickling(path_list):
    """Warm-state snapshots carry the table through a pickle round-trip:
    the clone holds the same paths and still canonicalises."""
    table = PathTable(path_list)
    clone = pickle.loads(pickle.dumps(table))
    assert len(clone) == len(table) == len(set(path_list))
    assert clone.stats() == table.stats()
    for path in path_list:
        assert path in clone
        assert clone.canonical(tuple(path)) is clone.canonical(path)


@given(
    nodes=st.integers(min_value=10, max_value=120),
    seed=st.integers(min_value=0, max_value=30),
    attachment=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_powerlaw_generator_is_deterministic(nodes, seed, attachment):
    first = powerlaw_topology(nodes, attachment=attachment, seed=seed)
    second = powerlaw_topology(nodes, attachment=attachment, seed=seed)
    assert first.edges == second.edges
    assert first.nodes == second.nodes
    assert nx.is_connected(nx.Graph(first.edges))
    # Edge budget: clique core plus min(attachment, existing) per node.
    core = 4
    expected = core * (core - 1) // 2 + sum(
        min(attachment, i) for i in range(core, nodes)
    )
    assert first.edge_count == expected


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=10, deadline=None)
def test_powerlaw_exponent_zero_still_connects(seed):
    topology = powerlaw_topology(60, exponent=0.0, seed=seed)
    assert nx.is_connected(nx.Graph(topology.edges))
    assert topology.node_count == 60
