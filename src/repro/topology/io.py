"""Topology serialization.

Experiments should be repeatable from an artefact, not just a seed:
:func:`save_topology` / :func:`load_topology` round-trip a
:class:`~repro.topology.model.Topology` — nodes, edges, relationships,
metadata — through a plain-JSON document, so a generated AS graph can be
checked into a paper artefact or shared between machines.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

from repro.bgp.policy import Relationship
from repro.errors import TopologyError, reject_non_finite_token
from repro.topology.model import Topology, build_adjacency
from repro.topology.relationships import RelationshipMap

FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def topology_to_dict(topology: Topology) -> Dict:
    """JSON-serialisable representation of ``topology``."""
    document: Dict = {
        "format_version": FORMAT_VERSION,
        "name": topology.name,
        "nodes": topology.nodes,
        "edges": [list(edge) for edge in topology.edges],
        "metadata": dict(topology.metadata),
    }
    if topology.relationships is not None:
        relationships: List[Dict] = []
        for u, v in topology.edges:
            rel = topology.relationships.relationship(u, v)
            if rel is Relationship.PEER:
                relationships.append({"kind": "peer", "a": u, "b": v})
            elif rel is Relationship.CUSTOMER:
                relationships.append({"kind": "provider", "provider": u, "customer": v})
            else:
                relationships.append({"kind": "provider", "provider": v, "customer": u})
        document["relationships"] = relationships
    return document


def topology_from_dict(document: Dict) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    if not isinstance(document, dict):
        raise TopologyError("a topology document must be a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise TopologyError(f"unsupported topology format version {version!r}")
    missing = [key for key in ("name", "nodes", "edges") if key not in document]
    if missing:
        raise TopologyError(f"topology document lacks {', '.join(missing)}")
    for edge in document["edges"]:
        if len(edge) != 2:
            raise TopologyError(f"malformed edge {edge!r}")
    relationships = None
    if "relationships" in document:
        relationships = RelationshipMap()
        for item in document["relationships"]:
            kind = item.get("kind")
            try:
                if kind == "peer":
                    relationships.set_peers(item["a"], item["b"])
                elif kind == "provider":
                    relationships.set_provider(item["provider"], item["customer"])
                else:
                    raise TopologyError(f"unknown relationship kind {kind!r}")
            except KeyError as exc:
                raise TopologyError(f"{kind} relationship lacks {exc}") from exc
    return Topology(
        name=document["name"],
        adjacency=build_adjacency(document["nodes"], document["edges"]),
        relationships=relationships,
        metadata=dict(document.get("metadata", {})),
    )


def save_topology(topology: Topology, path: PathLike) -> None:
    """Write ``topology`` to ``path`` as JSON."""
    payload = json.dumps(topology_to_dict(topology), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(payload + "\n", encoding="utf-8")


def load_topology(path: PathLike) -> Topology:
    """Read a topology previously written by :func:`save_topology`."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text, parse_constant=reject_non_finite_token)
    except ValueError as exc:
        raise TopologyError(f"not a topology file: {path}: {exc}") from exc
    return topology_from_dict(document)
