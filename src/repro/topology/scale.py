"""Internet-scale topology pipeline: synthesis, ingest, and stats.

The paper's experiments top out at 208 nodes; the real AS graph is
~75k. This module provides the two ways to get a 10k+-node
:class:`~repro.topology.model.Topology` into the simulator:

- :func:`powerlaw_topology` — a seeded preferential-attachment
  generator with a tunable attachment exponent and a fully meshed
  clique core, implemented in pure Python on a *named* RNG stream so
  the emitted edge list is bit-stable across Python and networkx
  versions (``nx.barabasi_albert_graph`` keeps no such promise, which
  matters once a generated graph is committed as a CI fixture).
- :func:`ingest_as_relationships` — a reader for CAIDA-style
  AS-relationship files (``provider|customer|-1`` / ``peer|peer|0``)
  producing a Topology plus :class:`RelationshipMap`, with
  :func:`write_as_relationships` as its inverse so generated graphs
  round-trip through the interchange format.

:func:`topology_stats` summarises either kind (degree tail, estimated
power-law exponent, relationship mix) for the ``rfd-repro topo stats``
subcommand and for sanity-checking fixtures. See docs/SCALING.md.
"""

from __future__ import annotations

import math
import pathlib
import random
from typing import Dict, List, Optional, Tuple, Union

import networkx as nx

from repro.bgp.policy import Relationship
from repro.errors import TopologyError
from repro.sim.rng import RngRegistry
from repro.topology.model import Topology
from repro.topology.relationships import RelationshipMap, assign_relationships

PathLike = Union[str, pathlib.Path]

#: Stream name for the generator — one draw sequence per master seed,
#: isolated from every other named stream per the detlint DET002 rules.
POWERLAW_STREAM = "topology:powerlaw"

#: Give up rejection sampling after this many tries and accept the last
#: candidate. Keeps generation deterministic and O(nodes·m) even for
#: extreme exponents, at the cost of a slight bias toward the uniform
#: kernel when the acceptance rate collapses.
_MAX_REJECTIONS = 200


def scale_node_name(index: int, total: int) -> str:
    """Canonical node name for generated scale graphs.

    Zero-padded to the width of the largest index so lexicographic and
    numeric orderings agree regardless of graph size (``as0000`` …
    ``as9999`` at 10k nodes).
    """
    width = max(3, len(str(max(total - 1, 0))))
    return f"as{index:0{width}d}"


def powerlaw_topology(
    nodes: int,
    attachment: int = 2,
    exponent: float = 1.0,
    core: int = 4,
    seed: int = 0,
    with_relationships: bool = False,
    name: Optional[str] = None,
) -> Topology:
    """Build a seeded power-law AS graph with ``nodes`` ASes.

    Growth model: the first ``core`` nodes form a clique (the transit
    core); each later node attaches to ``attachment`` distinct existing
    nodes drawn with probability proportional to ``degree**exponent``.
    ``exponent=1`` is classic Barabási–Albert (degree tail ~ ``k**-3``);
    values below 1 flatten the tail toward uniform attachment, values
    above 1 sharpen it toward winner-takes-all hubs.

    All randomness comes from the ``topology:powerlaw`` stream of a
    registry seeded with ``seed``, so the edge list is a pure function
    of the arguments — stable enough to commit generated graphs as CI
    fixtures and to compare digests across hosts and worker counts.
    """
    if nodes < 3:
        raise TopologyError(f"powerlaw topology needs >= 3 nodes, got {nodes}")
    if attachment < 1:
        raise TopologyError(f"attachment must be >= 1, got {attachment}")
    if core < max(2, attachment) or core > nodes:
        raise TopologyError(
            f"core must be in [max(2, attachment), nodes]; "
            f"got core={core} attachment={attachment} nodes={nodes}"
        )
    if exponent < 0:
        raise TopologyError(f"exponent must be >= 0, got {exponent}")

    rng = RngRegistry(seed).stream(POWERLAW_STREAM)
    names = [scale_node_name(i, nodes) for i in range(nodes)]
    degrees = [0] * nodes
    # Degree-proportional urn: node i appears degrees[i] times. Appending
    # per edge endpoint keeps draws O(1); the urn length is 2*|E|.
    urn: List[int] = []
    edges: List[Tuple[int, int]] = []

    def add_edge(a: int, b: int) -> None:
        edges.append((a, b))
        degrees[a] += 1
        degrees[b] += 1
        urn.append(a)
        urn.append(b)

    for i in range(core):
        for j in range(i + 1, core):
            add_edge(i, j)

    uniform_kernel = exponent == 0.0
    linear_kernel = exponent == 1.0
    for new in range(core, nodes):
        chosen: List[int] = []
        want = min(attachment, new)
        max_degree = float(max(degrees[:new]))
        while len(chosen) < want:
            candidate = _draw_attachment_target(
                rng, urn, degrees, new, exponent, max_degree,
                uniform_kernel, linear_kernel,
            )
            if candidate not in chosen:
                chosen.append(candidate)
        for target in chosen:
            add_edge(new, target)

    graph = nx.Graph()
    graph.add_nodes_from(names)
    graph.add_edges_from((names[a], names[b]) for a, b in edges)

    relationships = assign_relationships(graph) if with_relationships else None
    return Topology(
        name=name or f"powerlaw-{nodes}",
        graph=graph,
        relationships=relationships,
        metadata={
            "generator": "powerlaw",
            "attachment": attachment,
            "exponent": exponent,
            "core": core,
            "seed": seed,
        },
    )


def _draw_attachment_target(
    rng: random.Random,
    urn: List[int],
    degrees: List[int],
    existing: int,
    exponent: float,
    max_degree: float,
    uniform_kernel: bool,
    linear_kernel: bool,
) -> int:
    """One attachment draw with kernel ∝ degree**exponent.

    ``exponent == 1`` samples the urn directly; other exponents reweight
    by rejection: propose from the urn (∝ degree) for exponents above 1
    and uniformly for exponents below 1, then accept with the ratio of
    the target kernel to the proposal kernel, normalised by the current
    maximum degree.
    """
    if uniform_kernel:
        return rng.randrange(existing)
    if linear_kernel:
        return urn[rng.randrange(len(urn))]
    candidate = 0
    for _ in range(_MAX_REJECTIONS):
        if exponent > 1.0:
            candidate = urn[rng.randrange(len(urn))]
            accept = (degrees[candidate] / max_degree) ** (exponent - 1.0)
        else:
            candidate = rng.randrange(existing)
            accept = (degrees[candidate] / max_degree) ** exponent
        if rng.random() < accept:
            return candidate
    return candidate


# ----------------------------------------------------------------------
# CAIDA-style AS-relationship interchange
# ----------------------------------------------------------------------


def ingest_as_relationships(
    path: PathLike,
    name: Optional[str] = None,
    largest_component: bool = True,
    with_relationships: bool = True,
) -> Topology:
    """Read a CAIDA-style AS-relationship file into a Topology.

    Format (one relationship per line, ``#`` comments ignored)::

        <provider-asn>|<customer-asn>|-1
        <peer-asn>|<peer-asn>|0

    ASNs become node names via ``as<asn>``. Real relationship inference
    is noisy, so by default the graph is restricted to its largest
    connected component (the simulator requires connectivity); pass
    ``largest_component=False`` to fail loudly on disconnected input
    instead. With ``with_relationships=False`` only the graph is kept —
    useful when the file's provider edges are known to contain cycles
    that :meth:`RelationshipMap.validate_acyclic` would reject.
    """
    source = pathlib.Path(path)
    graph = nx.Graph()
    provider_edges: List[Tuple[str, str]] = []
    peer_edges: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            raise TopologyError(f"{source}:{lineno}: malformed line {raw!r}")
        try:
            a_num, b_num, kind = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise TopologyError(f"{source}:{lineno}: malformed line {raw!r}") from exc
        a, b = f"as{a_num}", f"as{b_num}"
        if a == b:
            raise TopologyError(f"{source}:{lineno}: self-loop on {a}")
        if kind == -1:
            provider_edges.append((a, b))
        elif kind == 0:
            peer_edges.append((a, b))
        else:
            raise TopologyError(
                f"{source}:{lineno}: unknown relationship code {kind} "
                f"(expected -1 provider|customer or 0 peer|peer)"
            )
        graph.add_edge(a, b)

    if graph.number_of_nodes() == 0:
        raise TopologyError(f"{source}: no relationships found")
    if largest_component and not nx.is_connected(graph):
        keep = max(nx.connected_components(graph), key=lambda c: (len(c), sorted(c)))
        graph = graph.subgraph(keep).copy()

    relationships: Optional[RelationshipMap] = None
    if with_relationships:
        relationships = RelationshipMap()
        for provider, customer in provider_edges:
            if provider in graph and customer in graph:
                relationships.set_provider(provider, customer)
        for a, b in peer_edges:
            if a in graph and b in graph:
                relationships.set_peers(a, b)
        relationships.validate_acyclic(graph.nodes)

    return Topology(
        name=name or source.stem,
        graph=graph,
        relationships=relationships,
        metadata={"source": str(source), "format": "as-relationships"},
    )


def write_as_relationships(topology: Topology, path: PathLike) -> None:
    """Write ``topology`` in the CAIDA-style format read by
    :func:`ingest_as_relationships` (requires relationships)."""
    if topology.relationships is None:
        raise TopologyError(
            f"topology {topology.name!r} has no relationships to serialise"
        )
    lines = [f"# {topology.name}: AS relationships (provider|customer|-1, peer|peer|0)"]
    rels = topology.relationships
    for u, v in topology.edges:
        rel = rels.relationship(u, v)
        a, b = _as_number(u), _as_number(v)
        if rel is Relationship.PEER:
            lines.append(f"{a}|{b}|0")
        elif rel is Relationship.CUSTOMER:
            lines.append(f"{a}|{b}|-1")
        else:
            lines.append(f"{b}|{a}|-1")
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _as_number(node: str) -> str:
    """The numeric ASN of an ``as<digits>`` node name (zero-padding
    dropped so the interchange file round-trips through ``as<asn>``)."""
    if not node.startswith("as") or not node[2:].isdigit():
        raise TopologyError(
            f"node {node!r} has no numeric ASN; the AS-relationship format "
            f"requires as<digits> node names"
        )
    return str(int(node[2:]))


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------


def estimate_powerlaw_exponent(degrees: List[int], d_min: int = 2) -> Optional[float]:
    """Clauset–Shalizi–Newman MLE for the degree-tail exponent.

    ``alpha = 1 + n / sum(ln(d / (d_min - 0.5)))`` over degrees >=
    ``d_min``. Returns None when fewer than two nodes qualify.
    """
    tail = [d for d in degrees if d >= d_min]
    if len(tail) < 2:
        return None
    denom = sum(math.log(d / (d_min - 0.5)) for d in tail)
    if denom <= 0:
        return None
    return 1.0 + len(tail) / denom


def topology_stats(topology: Topology) -> Dict[str, object]:
    """Summary statistics for ``topo stats`` and fixture sanity checks."""
    degrees = sorted((int(d) for _, d in topology.graph.degree), reverse=True)
    n = topology.node_count
    stats: Dict[str, object] = {
        "name": topology.name,
        "nodes": n,
        "edges": topology.edge_count,
        "avg_degree": round(2.0 * topology.edge_count / n, 3),
        "max_degree": degrees[0],
        "median_degree": degrees[n // 2],
        "top5_degrees": degrees[:5],
        "powerlaw_exponent_mle": estimate_powerlaw_exponent(degrees),
    }
    if topology.relationships is not None:
        stats["provider_edges"] = topology.relationships.provider_edge_count
        stats["peer_edges"] = topology.relationships.peer_edge_count
    return stats
