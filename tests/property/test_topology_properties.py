"""Property-based tests for topology generation and series utilities."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.series import bin_counts, step_series_at, to_step_series
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.topology.relationships import assign_relationships
from repro.workload.pulses import PulseSchedule


@given(rows=st.integers(min_value=2, max_value=8), cols=st.integers(min_value=2, max_value=8))
@settings(max_examples=30)
def test_mesh_structure(rows, cols):
    topology = mesh_topology(rows, cols)
    assert topology.node_count == rows * cols
    assert nx.is_connected(nx.Graph(topology.edges))
    # A torus is vertex-transitive: every node has the same degree.
    degrees = {topology.degree(n) for n in topology.nodes}
    assert len(degrees) == 1
    # Degree 4 except where a dimension of length 2 collapses a pair.
    expected = (2 if rows == 2 else 0) + (2 if cols == 2 else 0)
    assert degrees == {4 - expected // 2}


@given(nodes=st.integers(min_value=5, max_value=80), seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_internet_topology_connected_and_sized(nodes, seed):
    topology = internet_topology(nodes, seed=seed)
    assert topology.node_count == nodes
    assert nx.is_connected(nx.Graph(topology.edges))


@given(nodes=st.integers(min_value=5, max_value=60), seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=20, deadline=None)
def test_relationship_assignment_invariants(nodes, seed):
    topology = internet_topology(nodes, seed=seed, with_relationships=True)
    relationships = topology.relationships
    assert relationships is not None
    relationships.validate_acyclic(topology.nodes)
    # Exactly one root (no providers); every other node has >= 1 provider.
    orphans = [n for n in topology.nodes if not relationships.providers_of(n)]
    assert len(orphans) == 1
    # Edge counts add up.
    assert (
        relationships.provider_edge_count + relationships.peer_edge_count
        == topology.edge_count
    )


@given(pulses=st.integers(min_value=0, max_value=20),
       interval=st.floats(min_value=1.0, max_value=600.0))
def test_pulse_schedule_invariants(pulses, interval):
    schedule = PulseSchedule.regular(pulses, interval)
    assert schedule.pulse_count == pulses
    assert len(schedule) == 2 * pulses
    if pulses:
        assert schedule.events[-1][1] == "up"
        assert schedule.duration == pytest.approx((2 * pulses - 1) * interval)
        statuses = [status for _, status in schedule.events]
        assert statuses == ["down", "up"] * pulses


@given(times=st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=100),
       width=st.floats(min_value=0.1, max_value=50.0))
def test_bin_counts_conserve_events(times, width):
    series = bin_counts(times, width, start=0.0, end=1000.0 + width)
    assert sum(count for _, count in series) == len(times)


@given(deltas=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=100.0), st.sampled_from([1, -1])),
    max_size=50,
))
def test_step_series_final_value_is_sum(deltas):
    ordered = sorted(deltas, key=lambda pair: pair[0])
    series = to_step_series(ordered)
    total = sum(delta for _, delta in ordered)
    assert step_series_at(series, 1e9) == total


@given(
    nodes=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=20),
    rels=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_topology_io_round_trip(nodes, seed, rels):
    """Serialising any generated topology and rebuilding it preserves the
    graph, the metadata, and every relationship."""
    from repro.topology.io import topology_from_dict, topology_to_dict

    original = internet_topology(nodes, seed=seed, with_relationships=rels)
    rebuilt = topology_from_dict(topology_to_dict(original))
    assert rebuilt.nodes == original.nodes
    assert rebuilt.edges == original.edges
    assert rebuilt.metadata == original.metadata
    if rels:
        assert rebuilt.relationships is not None
        for u, v in original.edges:
            assert rebuilt.relationships.relationship(u, v) is (
                original.relationships.relationship(u, v)
            )
    else:
        assert rebuilt.relationships is None
