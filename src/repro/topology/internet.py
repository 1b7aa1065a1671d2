"""Synthetic Internet-derived topologies.

The paper uses AS graphs derived from BGP routing tables (Premore's
SSFNet gallery), whose load-bearing property for this study is the
long-tailed degree distribution: a few highly connected transit hubs and
many low-degree stubs, which shapes how much path exploration different
parts of the network see. We generate that shape with preferential
attachment (Barabási–Albert), optionally enriched with extra random
peering edges to raise path diversity toward measured AS-graph levels.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.sim.rng import RngRegistry
from repro.topology.model import Topology, build_adjacency
from repro.topology.relationships import assign_relationships


def internet_node_name(index: int) -> str:
    """Canonical node name for AS number ``index``."""
    return f"as{index:03d}"


def internet_topology(
    nodes: int,
    attachment: int = 2,
    extra_peering_fraction: float = 0.0,
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
    extra_peering_fraction:
        Additional random edges, as a fraction of the BA edge count,
        wired preferentially between similar-degree nodes to mimic
        peering links.
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
    if extra_peering_fraction < 0:
        raise TopologyError(
            f"extra_peering_fraction must be >= 0, got {extra_peering_fraction}"
        )

    names = [internet_node_name(i) for i in range(nodes)]
    edges = [(names[a], names[b]) for a, b in _barabasi_albert_edges(nodes, attachment, seed)]
    if extra_peering_fraction > 0:
        _add_peering_edges(edges, extra_peering_fraction, seed)

    adjacency = build_adjacency(names, edges)
    relationships = assign_relationships(adjacency) if with_relationships else None
    return Topology(
        name=f"internet-{nodes}",
        adjacency=adjacency,
        relationships=relationships,
        metadata={
            "attachment": attachment,
            "extra_peering_fraction": extra_peering_fraction,
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


def _add_peering_edges(edges: List[Tuple[str, str]], fraction: float, seed: int) -> None:
    """Append ``fraction * |E|`` random edges between similar-degree nodes."""
    rng = random.Random(seed + 1)
    target = int(len(edges) * fraction)
    neighbours: Dict[str, Set[str]] = {}
    for a, b in edges:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    names = sorted(neighbours)
    attempts = 0
    added = 0
    while added < target and attempts < target * 50 + 100:
        attempts += 1
        a, b = rng.sample(names, 2)
        if b in neighbours[a]:
            continue
        deg_a, deg_b = len(neighbours[a]), len(neighbours[b])
        # Prefer similar-degree pairs (peering-like); always allow small
        # degrees so stubs can multihome.
        if max(deg_a, deg_b) > 2 * max(1, min(deg_a, deg_b)) and rng.random() < 0.7:
            continue
        neighbours[a].add(b)
        neighbours[b].add(a)
        edges.append((a, b))
        added += 1


def pick_isp(
    topology: Topology,
    rng: Optional[random.Random] = None,
    nodes: Optional[Sequence[str]] = None,
) -> str:
    """Randomly select a node to play the ``ispAS`` role.

    The paper "randomly select[s] a node to be the ispAS"; a plain uniform
    choice over nodes reproduces that.

    When ``rng`` is omitted the draw comes from a fresh, *named*
    ``RngRegistry`` stream (``topology:pick-isp`` under master seed 0),
    so the default is reproducible per call yet can never alias the
    sequence of any other default-seeded call site — previously both
    this function and :func:`repro.workload.patterns.pattern_by_name`
    fell back to ``random.Random(0)`` and silently shared a stream
    (the hazard detlint rule DET002 exists to catch).

    ``topology.nodes`` is a sorted list computed once at construction,
    so repeated calls are O(1); callers drawing many ISPs in a tight loop
    (sweep setup on 10k-node graphs) can also pass a precomputed
    ``nodes`` sequence to skip the property lookup entirely.
    """
    chooser = rng if rng is not None else RngRegistry(0).stream("topology:pick-isp")
    candidates = nodes if nodes is not None else topology.nodes
    return chooser.choice(candidates)
