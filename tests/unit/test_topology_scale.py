"""Unit tests for the internet-scale topology pipeline
(repro.topology.scale): power-law synthesis, CAIDA-style ingest, and
stats."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology.scale import (
    estimate_powerlaw_exponent,
    ingest_as_relationships,
    powerlaw_topology,
    scale_node_name,
    topology_stats,
    write_as_relationships,
)


def test_scale_node_name_zero_pads_to_graph_width():
    assert scale_node_name(0, 1000) == "as000"
    assert scale_node_name(7, 10000) == "as0007"
    assert scale_node_name(9999, 10000) == "as9999"
    # Minimum width of 3 keeps tiny graphs aligned with the figures.
    assert scale_node_name(1, 5) == "as001"


def test_powerlaw_counts_and_connectivity():
    topology = powerlaw_topology(200, attachment=2, core=4, seed=1)
    assert topology.node_count == 200
    # clique core + attachment edges for every later node
    assert topology.edge_count == 6 + (200 - 4) * 2
    assert nx.is_connected(nx.Graph(topology.edges))
    assert topology.name == "powerlaw-200"
    assert topology.metadata["generator"] == "powerlaw"


def test_powerlaw_is_deterministic_per_seed():
    first = powerlaw_topology(150, seed=5)
    second = powerlaw_topology(150, seed=5)
    assert sorted(first.edges) == sorted(second.edges)
    other = powerlaw_topology(150, seed=6)
    assert sorted(first.edges) != sorted(other.edges)


def test_powerlaw_exponent_shapes_the_tail():
    flat = powerlaw_topology(400, exponent=0.0, seed=2)
    sharp = powerlaw_topology(400, exponent=1.6, seed=2)
    flat_max = max(flat.degree(n) for n in flat.nodes)
    sharp_max = max(sharp.degree(n) for n in sharp.nodes)
    assert sharp_max > flat_max


def test_powerlaw_with_relationships_is_valley_free_ready():
    topology = powerlaw_topology(120, seed=3, with_relationships=True)
    assert topology.relationships is not None
    topology.relationships.validate_acyclic(topology.nodes)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nodes": 2},
        {"nodes": 50, "attachment": 0},
        {"nodes": 50, "core": 1},
        {"nodes": 50, "core": 51},
        {"nodes": 50, "exponent": -0.5},
    ],
)
def test_powerlaw_rejects_bad_parameters(kwargs):
    with pytest.raises(TopologyError):
        powerlaw_topology(**kwargs)


def test_caida_round_trip(tmp_path):
    original = powerlaw_topology(80, seed=4, with_relationships=True)
    path = tmp_path / "as-rel.txt"
    write_as_relationships(original, path)
    restored = ingest_as_relationships(path, name=original.name)
    assert restored.node_count == original.node_count
    assert restored.edge_count == original.edge_count
    assert restored.relationships is not None
    assert (
        restored.relationships.provider_edge_count
        == original.relationships.provider_edge_count
    )
    assert (
        restored.relationships.peer_edge_count
        == original.relationships.peer_edge_count
    )


def test_ingest_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "rel.txt"
    path.write_text("# header\n\n1|2|-1\n1|3|-1\n2|3|0\n", encoding="utf-8")
    topology = ingest_as_relationships(path)
    assert sorted(topology.nodes) == ["as1", "as2", "as3"]
    assert topology.edge_count == 3
    assert topology.relationships.provider_edge_count == 2
    assert topology.relationships.peer_edge_count == 1


@pytest.mark.parametrize(
    "line",
    ["1|2", "one|2|-1", "1|2|7", "5|5|0"],
)
def test_ingest_rejects_malformed_lines_with_line_numbers(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"1|2|-1\n{line}\n", encoding="utf-8")
    with pytest.raises(TopologyError, match=":2:"):
        ingest_as_relationships(path)


def test_ingest_empty_file_fails(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(TopologyError, match="no relationships"):
        ingest_as_relationships(path)


def test_ingest_keeps_largest_component_by_default(tmp_path):
    path = tmp_path / "split.txt"
    # A 3-node component and a separate 2-node one.
    path.write_text("1|2|-1\n1|3|-1\n8|9|0\n", encoding="utf-8")
    topology = ingest_as_relationships(path)
    assert sorted(topology.nodes) == ["as1", "as2", "as3"]
    with pytest.raises(TopologyError):
        ingest_as_relationships(path, largest_component=False)


def test_write_requires_relationships(tmp_path):
    topology = powerlaw_topology(20, seed=0)
    with pytest.raises(TopologyError, match="no relationships"):
        write_as_relationships(topology, tmp_path / "out.txt")


def test_estimate_powerlaw_exponent():
    assert estimate_powerlaw_exponent([1, 1, 1]) is None
    # A genuinely heavy-tailed sample estimates a finite alpha > 1.
    degrees = [2] * 50 + [4] * 20 + [8] * 8 + [16] * 3 + [64]
    alpha = estimate_powerlaw_exponent(degrees)
    assert alpha is not None and 1.0 < alpha < 5.0


def test_topology_stats_fields():
    topology = powerlaw_topology(100, seed=7, with_relationships=True)
    stats = topology_stats(topology)
    assert stats["nodes"] == 100
    assert stats["edges"] == topology.edge_count
    assert stats["max_degree"] == stats["top5_degrees"][0]
    assert stats["provider_edges"] + stats["peer_edges"] == topology.edge_count
    assert stats["powerlaw_exponent_mle"] > 1.0
