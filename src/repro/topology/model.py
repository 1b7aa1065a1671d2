"""The topology value object shared by generators and scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TopologyError

if TYPE_CHECKING:
    from repro.topology.relationships import RelationshipMap

#: Node name → neighbour names, in the order the edges were given.
Adjacency = Mapping[str, Sequence[str]]


def build_adjacency(
    nodes: Iterable[str], edges: Iterable[Tuple[str, str]]
) -> Dict[str, Tuple[str, ...]]:
    """The adjacency of an undirected graph, every generator's one way in.

    Rejects non-string or duplicate node names, edges whose endpoints are
    not nodes, self-loops and repeated edges (in either orientation).
    """
    neighbours: Dict[str, Dict[str, None]] = {}
    for node in nodes:
        if not isinstance(node, str) or node in neighbours:
            raise TopologyError(f"node {node!r} is duplicated or not a string")
        neighbours[node] = {}
    for a, b in edges:
        if a not in neighbours or b not in neighbours:
            raise TopologyError(f"edge ({a!r}, {b!r}) names an unknown node")
        if a == b or b in neighbours[a]:
            raise TopologyError(f"edge ({a!r}, {b!r}) is a self-loop or repeated")
        neighbours[a][b] = None
        neighbours[b][a] = None
    return {node: tuple(adjacent) for node, adjacent in neighbours.items()}


def bfs_depths(adjacency: Adjacency, source: str) -> Dict[str, int]:
    """Hop count from ``source`` to every node it reaches, in BFS order."""
    depths = {source: 0}
    queue = [source]
    for node in queue:
        depth = depths[node] + 1
        for neighbour in adjacency[node]:
            if neighbour not in depths:
                depths[neighbour] = depth
                queue.append(neighbour)
    return depths


@dataclass(frozen=True)
class Topology:
    """An undirected AS-level graph with string node names.

    ``adjacency`` comes from :func:`build_adjacency` and is never
    mutated, so the sorted ``nodes`` / ``edges`` views are computed once.
    ``relationships`` is populated only when the topology carries
    commercial relationships (needed by the no-valley policy); it must
    cover exactly the edge set.
    """

    name: str
    adjacency: Dict[str, Tuple[str, ...]]
    relationships: Optional[RelationshipMap] = None
    metadata: dict = field(default_factory=dict)
    nodes: List[str] = field(init=False, repr=False, compare=False)
    edges: List[Tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacency = self.adjacency
        if not adjacency:
            raise TopologyError(f"topology {self.name!r} has no nodes")
        if len(bfs_depths(adjacency, next(iter(adjacency)))) != len(adjacency):
            raise TopologyError(f"topology {self.name!r} must be connected")
        object.__setattr__(self, "nodes", sorted(adjacency))
        edges = sorted((a, b) for a, adjacent in adjacency.items() for b in adjacent if a < b)
        object.__setattr__(self, "edges", edges)
        relationships = self.relationships
        if relationships is not None:
            given = relationships.provider_edge_count + relationships.peer_edge_count
            uncovered = [e for e in edges if not relationships.has_relationship(*e)]
            if uncovered or given != len(edges):
                raise TopologyError(
                    f"topology {self.name!r} has {given} relationships for "
                    f"{len(edges)} edges; uncovered: {uncovered[:3]}"
                )
            relationships.validate_acyclic(self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, node: str) -> int:
        return len(self.adjacency[node])

    def neighbors(self, node: str) -> List[str]:
        return sorted(self.adjacency[node])

    def hop_distance(self, a: str, b: str) -> int:
        """Shortest-path hop count between two nodes."""
        return bfs_depths(self.adjacency, a)[b]

    def nodes_at_distance(self, source: str, distance: int) -> List[str]:
        """All nodes exactly ``distance`` hops from ``source``."""
        depths = bfs_depths(self.adjacency, source)
        return sorted(n for n, d in depths.items() if d == distance)

    def eccentricity(self, source: str) -> int:
        """Greatest hop distance from ``source`` to any node."""
        return max(bfs_depths(self.adjacency, source).values())
