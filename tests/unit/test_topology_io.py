"""Unit tests for topology serialization."""

from __future__ import annotations

import json

import pytest

from repro.errors import TopologyError
from repro.topology.internet import internet_topology
from repro.topology.io import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.mesh import mesh_topology


def test_round_trip_mesh(tmp_path):
    original = mesh_topology(4, 5)
    path = tmp_path / "mesh.json"
    save_topology(original, path)
    loaded = load_topology(path)
    assert loaded.name == original.name
    assert loaded.nodes == original.nodes
    assert loaded.edges == original.edges
    assert loaded.metadata == original.metadata
    assert loaded.relationships is None


def test_round_trip_with_relationships(tmp_path):
    original = internet_topology(30, seed=4, with_relationships=True)
    path = tmp_path / "internet.json"
    save_topology(original, path)
    loaded = load_topology(path)
    assert loaded.edges == original.edges
    assert loaded.relationships is not None
    for u, v in original.edges:
        assert loaded.relationships.relationship(u, v) is (
            original.relationships.relationship(u, v)
        )


def test_loaded_topology_usable_in_scenario(tmp_path):
    from repro.core.params import CISCO_DEFAULTS
    from repro.workload.scenarios import ScenarioConfig, run_episode

    original = mesh_topology(3, 3)
    path = tmp_path / "t.json"
    save_topology(original, path)
    loaded = load_topology(path)
    result = run_episode(
        ScenarioConfig(topology=loaded, damping=CISCO_DEFAULTS, seed=1), pulses=1
    )
    assert result.message_count > 0


def test_file_is_valid_json(tmp_path):
    path = tmp_path / "t.json"
    save_topology(mesh_topology(3, 3), path)
    document = json.loads(path.read_text())
    assert document["format_version"] == 1
    assert len(document["nodes"]) == 9


def test_bad_format_version_rejected():
    document = topology_to_dict(mesh_topology(3, 3))
    document["format_version"] = 99
    with pytest.raises(TopologyError):
        topology_from_dict(document)


def test_malformed_edge_rejected():
    document = topology_to_dict(mesh_topology(3, 3))
    document["edges"].append(["only-one"])
    with pytest.raises(TopologyError):
        topology_from_dict(document)


def test_unknown_relationship_kind_rejected():
    document = topology_to_dict(internet_topology(10, seed=1, with_relationships=True))
    document["relationships"][0]["kind"] = "frenemy"
    with pytest.raises(TopologyError):
        topology_from_dict(document)


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all {")
    with pytest.raises(TopologyError):
        load_topology(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_rejected(tmp_path, token):
    path = tmp_path / "nan.json"
    path.write_text('{"format_version": %s, "nodes": [], "edges": []}' % token)
    with pytest.raises(TopologyError, match=f"{token} is not a finite number"):
        load_topology(path)


def test_relationship_cycle_rejected_on_load():
    document = {
        "format_version": 1,
        "name": "cycle",
        "nodes": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "metadata": {},
        "relationships": [
            {"kind": "provider", "provider": "a", "customer": "b"},
            {"kind": "provider", "provider": "b", "customer": "c"},
            {"kind": "provider", "provider": "c", "customer": "a"},
        ],
    }
    with pytest.raises(TopologyError):
        topology_from_dict(document)


def _triangle_document():
    """a provides transit to b and c, which peer with each other."""
    return {
        "format_version": 1,
        "name": "triangle",
        "nodes": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "metadata": {},
        "relationships": [
            {"kind": "provider", "provider": "a", "customer": "b"},
            {"kind": "peer", "a": "b", "b": "c"},
            {"kind": "provider", "provider": "a", "customer": "c"},
        ],
    }


MALFORMED_DOCUMENTS = {
    "missing-nodes": lambda d: d.pop("nodes"),
    "missing-edges": lambda d: d.pop("edges"),
    "missing-name": lambda d: d.pop("name"),
    "unknown-endpoint": lambda d: d["edges"].append(["c", "zz"]),
    "self-loop": lambda d: d["edges"].append(["c", "c"]),
    "duplicate-node": lambda d: d["nodes"].append("b"),
    "repeated-edge": lambda d: d["edges"].append(["a", "b"]),
    "repeated-edge-reversed": lambda d: d["edges"].append(["c", "b"]),
    "edge-without-relationship": lambda d: d["relationships"].pop(1),
    "relationship-on-non-edge": lambda d: d["edges"].remove(["a", "c"]),
    "relationship-missing-key": lambda d: d["relationships"][0].pop("customer"),
}


def test_triangle_document_is_well_formed():
    topology = topology_from_dict(_triangle_document())
    assert topology.edges == [("a", "b"), ("a", "c"), ("b", "c")]


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_rejected_at_load(case):
    document = _triangle_document()
    MALFORMED_DOCUMENTS[case](document)
    with pytest.raises(TopologyError):
        topology_from_dict(document)


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_topo_stats_reports_malformed_document_in_one_line(case, tmp_path, capsys):
    from repro.cli import main

    document = _triangle_document()
    MALFORMED_DOCUMENTS[case](document)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert main(["topo", "stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfd-repro topo: ") and err.count("\n") == 1


def test_non_object_document_rejected():
    with pytest.raises(TopologyError):
        topology_from_dict([1, 2, 3])
