"""The topology value object shared by generators and scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import networkx as nx

from repro.errors import TopologyError
from repro.topology.relationships import RelationshipMap


@dataclass
class Topology:
    """An undirected AS-level graph with string node names.

    ``relationships`` is populated only when the topology carries
    commercial relationships (needed by the no-valley policy).
    """

    name: str
    graph: nx.Graph
    relationships: Optional[RelationshipMap] = None
    metadata: dict = field(default_factory=dict)
    # Lazily cached sorted views. The graph is treated as immutable once
    # the Topology is constructed (scenario builders add routers to the
    # Network, never nodes to the graph), so the caches never go stale;
    # call invalidate_caches() after any deliberate in-place mutation.
    _nodes_cache: Optional[List[str]] = field(
        default=None, repr=False, compare=False
    )
    _edges_cache: Optional[List[Tuple[str, str]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.graph.number_of_nodes() == 0:
            raise TopologyError(f"topology {self.name!r} has no nodes")
        if not nx.is_connected(self.graph):
            raise TopologyError(f"topology {self.name!r} must be connected")
        for node in self.graph.nodes:
            if not isinstance(node, str):
                raise TopologyError(
                    f"topology {self.name!r} has non-string node {node!r}"
                )

    @property
    def node_count(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        return self.graph.number_of_edges()

    @property
    def nodes(self) -> List[str]:
        if self._nodes_cache is None:
            self._nodes_cache = sorted(self.graph.nodes)
        return self._nodes_cache

    @property
    def edges(self) -> List[Tuple[str, str]]:
        if self._edges_cache is None:
            self._edges_cache = sorted(tuple(sorted(e)) for e in self.graph.edges)
        return self._edges_cache

    def invalidate_caches(self) -> None:
        """Drop the sorted node/edge caches after in-place graph edits."""
        self._nodes_cache = None
        self._edges_cache = None

    def degree(self, node: str) -> int:
        return int(self.graph.degree[node])

    def neighbors(self, node: str) -> List[str]:
        return sorted(self.graph.neighbors(node))

    def hop_distance(self, a: str, b: str) -> int:
        """Shortest-path hop count between two nodes."""
        return int(nx.shortest_path_length(self.graph, a, b))

    def nodes_at_distance(self, source: str, distance: int) -> List[str]:
        """All nodes exactly ``distance`` hops from ``source``."""
        lengths = nx.single_source_shortest_path_length(self.graph, source)
        return sorted(n for n, d in lengths.items() if d == distance)

    def eccentricity(self, source: str) -> int:
        """Greatest hop distance from ``source`` to any node."""
        lengths = nx.single_source_shortest_path_length(self.graph, source)
        return max(lengths.values())
