"""Synthetic Internet-derived topologies.

The paper uses AS graphs derived from BGP routing tables (Premore's
SSFNet gallery), whose load-bearing property for this study is the
long-tailed degree distribution: a few highly connected transit hubs and
many low-degree stubs, which shapes how much path exploration different
parts of the network see. We generate that shape with preferential
attachment (Barabási–Albert).
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from repro.errors import TopologyError
from repro.topology.model import Topology, build_adjacency
from repro.topology.relationships import assign_relationships


def internet_node_name(index: int) -> str:
    """Canonical node name for AS number ``index``."""
    return f"as{index:03d}"


def internet_topology(
    nodes: int,
    attachment: int = 2,
    seed: int = 0,
    with_relationships: bool = False,
) -> Topology:
    """Build a power-law AS graph with ``nodes`` ASes.

    Parameters
    ----------
    nodes:
        Number of ASes (the paper uses 100 and 208).
    attachment:
        Edges each new AS brings (Barabási–Albert ``m``); 2 gives an
        average degree near 4 and a long-tailed distribution.
    seed:
        Topology RNG seed (independent of the simulation seed).
    with_relationships:
        Assign customer-provider / peer-peer relationships (needed by the
        no-valley policy, Figure 15).
    """
    if nodes < 3:
        raise TopologyError(f"internet topology needs >= 3 nodes, got {nodes}")
    if attachment < 1 or attachment >= nodes:
        raise TopologyError(
            f"attachment must be in [1, nodes), got {attachment} for {nodes} nodes"
        )

    names = [internet_node_name(i) for i in range(nodes)]
    edges = [(names[a], names[b]) for a, b in _barabasi_albert_edges(nodes, attachment, seed)]

    adjacency = build_adjacency(names, edges)
    relationships = assign_relationships(adjacency) if with_relationships else None
    return Topology(
        name=f"internet-{nodes}",
        adjacency=adjacency,
        relationships=relationships,
        metadata={
            "attachment": attachment,
            # No peering edges are added; the key keeps generated topology
            # documents byte-identical to the committed ones.
            "extra_peering_fraction": 0.0,
            "seed": seed,
        },
    )


def _barabasi_albert_edges(nodes: int, m: int, seed: int) -> List[Tuple[int, int]]:
    """Preferential attachment, draw for draw NetworkX 3.x
    ``barabasi_albert_graph(nodes, m, seed)``: a star on ``m + 1`` nodes,
    then each new node links to ``m`` distinct targets drawn from a list
    holding every node once per incident edge."""
    rng = random.Random(seed)
    edges = [(0, leaf) for leaf in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, nodes):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        edges.extend((source, target) for target in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return edges


def pick_isp(topology: Topology, rng: random.Random) -> str:
    """Randomly select a node to play the ``ispAS`` role.

    The paper "randomly select[s] a node to be the ispAS"; a plain uniform
    choice over the (sorted) nodes reproduces that.
    """
    return rng.choice(topology.nodes)
