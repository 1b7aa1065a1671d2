"""Customer-provider / peer-peer relationship assignment.

The paper's Figure 15 runs on a 208-node Internet-derived topology "in
which every pair of connected nodes is assigned a relationship as
customer-provider or peer-peer". Real AS-relationship data is inferred
from BGP tables; for a synthetic graph we assign relationships by BFS
depth from the highest-degree node:

- tree and cross edges between different depths are oriented
  *shallower = provider* (the core provides transit to the edge),
- edges between nodes at the same depth become *peer-peer*.

Depth orientation makes the provider digraph acyclic (a provider is
always strictly closer to the core), and because every non-root node has
a BFS parent, every AS has at least one provider chain to the root.
Together these guarantee the two properties Figure 15 needs: the
no-valley route system is convergent (Gao–Rexford safety), and a prefix
originated anywhere is reachable everywhere (customer routes climb to the
root, then descend to all customers).
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Iterable, List, Optional, Tuple

from repro.bgp.policy import Relationship
from repro.errors import TopologyError
from repro.topology.model import Adjacency, bfs_depths


class RelationshipMap:
    """Lookup of each router's relationship with each neighbour.

    Stored canonically as ``{(provider, customer)}`` pairs plus a set of
    peer edges; :meth:`relationship` answers from either endpoint's
    perspective.
    """

    def __init__(self) -> None:
        self._provider_of: Dict[Tuple[str, str], None] = {}
        self._peers: Dict[Tuple[str, str], None] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def set_provider(self, provider: str, customer: str) -> None:
        """Record that ``provider`` sells transit to ``customer``."""
        if provider == customer:
            raise TopologyError(f"{provider!r} cannot be its own provider")
        key = (provider, customer)
        reverse = (customer, provider)
        if reverse in self._provider_of:
            raise TopologyError(
                f"conflicting relationship: {customer!r} is already the "
                f"provider of {provider!r}"
            )
        if self._peer_key(provider, customer) in self._peers:
            raise TopologyError(
                f"conflicting relationship: {provider!r} and {customer!r} "
                f"are already peers"
            )
        self._provider_of[key] = None

    def set_peers(self, a: str, b: str) -> None:
        """Record a settlement-free peering between ``a`` and ``b``."""
        if a == b:
            raise TopologyError(f"{a!r} cannot peer with itself")
        if (a, b) in self._provider_of or (b, a) in self._provider_of:
            raise TopologyError(
                f"conflicting relationship: {a!r} and {b!r} already have a "
                f"customer-provider relationship"
            )
        self._peers[self._peer_key(a, b)] = None

    @staticmethod
    def _peer_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def relationship(self, router: str, neighbor: str) -> Relationship:
        """``router``'s relationship with ``neighbor`` (router's view)."""
        if (router, neighbor) in self._provider_of:
            return Relationship.CUSTOMER  # I provide for them → they're my customer
        if (neighbor, router) in self._provider_of:
            return Relationship.PROVIDER
        if self._peer_key(router, neighbor) in self._peers:
            return Relationship.PEER
        raise TopologyError(f"no relationship between {router!r} and {neighbor!r}")

    def has_relationship(self, router: str, neighbor: str) -> bool:
        return (
            (router, neighbor) in self._provider_of
            or (neighbor, router) in self._provider_of
            or self._peer_key(router, neighbor) in self._peers
        )

    def providers_of(self, router: str) -> List[str]:
        return sorted(p for (p, c) in self._provider_of if c == router)

    @property
    def provider_edge_count(self) -> int:
        return len(self._provider_of)

    @property
    def peer_edge_count(self) -> int:
        return len(self._peers)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate_acyclic(self, nodes: Iterable[str]) -> None:
        """Raise :class:`TopologyError` if the provider digraph has a cycle
        (which would break Gao–Rexford convergence guarantees).

        Kahn's algorithm: retire every node with no unretired provider,
        starting from ``nodes``; a node left over sits on a cycle.
        """
        providers: Dict[str, int] = dict.fromkeys(nodes, 0)
        customers: DefaultDict[str, List[str]] = defaultdict(list)
        for provider, customer in self._provider_of:
            providers.setdefault(provider, 0)
            providers[customer] = providers.get(customer, 0) + 1
            customers[provider].append(customer)
        retired = [node for node, count in providers.items() if count == 0]
        for node in retired:
            for customer in customers[node]:
                providers[customer] -= 1
                if providers[customer] == 0:
                    retired.append(customer)
        if len(retired) != len(providers):
            raise TopologyError("customer-provider relationships contain a cycle")


def assign_relationships(
    adjacency: Adjacency, root: Optional[str] = None
) -> RelationshipMap:
    """Assign relationships to every edge of ``adjacency`` by BFS depth.

    ``root`` defaults to the highest-degree node (ties broken by name) —
    the synthetic "tier-1". See the module docstring for the guarantees
    this construction provides.
    """
    if not adjacency:
        raise TopologyError("cannot assign relationships on an empty graph")
    if root is None:
        root = max(sorted(adjacency), key=lambda n: len(adjacency[n]))
    elif root not in adjacency:
        raise TopologyError(f"root {root!r} is not in the graph")

    depth = bfs_depths(adjacency, root)
    if len(depth) != len(adjacency):
        raise TopologyError("relationship assignment requires a connected graph")
    relationships = RelationshipMap()
    for u in adjacency:
        for v in adjacency[u]:
            if depth[u] == depth[v]:
                relationships.set_peers(u, v)
            elif depth[u] < depth[v]:
                relationships.set_provider(u, v)
    return relationships
