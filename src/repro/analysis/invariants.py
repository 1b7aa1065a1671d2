"""The converged-state oracle: every Loc-RIB against a solved stable routing.

Both routing policies have exactly one stable state, computable without
a simulation: shortest path with lowest-neighbour tie-break is a
breadth-first search from the origin, and no-valley with prefer-customer
is the Gao–Rexford solution ("BGP Converges to stable solution in
Interdomain routing"). :func:`stable_routing` solves it from an adjacency
and a relationship function alone — no code shared with the router's
decision process — and :func:`check_converged_invariants` holds every
drained Loc-RIB to it: damping may delay convergence but never change
where the network ends up ("Analysis of Path-vector Routing Stability").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bgp.policy import Relationship, RelationshipFunction
from repro.errors import SimulationError
from repro.workload.scenarios import Scenario

Path = Tuple[str, ...]


@dataclass
class InvariantViolation:
    """One broken invariant at one router."""

    router: str
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.router}: {self.invariant} — {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep over a network."""

    violations: List[InvariantViolation] = field(default_factory=list)
    routers_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_on_violation(self) -> None:
        if self.violations:
            summary = "; ".join(str(v) for v in self.violations[:5])
            raise SimulationError(
                f"{len(self.violations)} protocol invariant violation(s): {summary}"
            )


def stable_routing(
    adjacency: Mapping[str, Iterable[str]],
    origin: str,
    relationship: Optional[RelationshipFunction] = None,
) -> Dict[str, Path]:
    """The stable AS path of every node that can reach ``origin``.

    ``adjacency`` is the live graph, ``origin`` included. Without a
    ``relationship`` the policy is shortest path; with one it is
    no-valley with prefer-customer. Each path starts at the node's next
    hop and ends at ``origin`` — the Loc-RIB's ``as_path`` — and nodes
    with no route are absent (so is ``origin`` itself). An ``origin``
    missing from ``adjacency`` gives no route anywhere.
    """
    if origin not in adjacency:
        return {}
    paths: Dict[str, Path] = {origin: ()}
    if relationship is None:
        _settle(paths, adjacency, [origin], lambda via, node: True, onward=True)
    else:
        rel: RelationshipFunction = relationship
        # Customer routes climb to providers and are exported to everyone;
        # a peer route goes no further than the peer; anything descends.
        for kind, onward in (
            (Relationship.CUSTOMER, True),
            (Relationship.PEER, False),
            (Relationship.PROVIDER, True),
        ):
            _settle(
                paths,
                adjacency,
                list(paths),
                lambda via, node, kind=kind: rel(node, via) is kind,
                onward,
            )
    del paths[origin]
    return paths


def _settle(
    paths: Dict[str, Path],
    adjacency: Mapping[str, Iterable[str]],
    exporters: List[str],
    learns: Callable[[str, str], bool],
    onward: bool,
) -> None:
    """Give a path to every unsettled node that ``learns(via, node)``
    from a settled exporter, choosing by (path length, next-hop name);
    with ``onward`` each newly settled node exports in turn."""
    offers: Dict[int, Dict[str, str]] = {}  # length -> {node: lowest via}

    def offer(via: str) -> None:
        bucket = offers.setdefault(len(paths[via]) + 1, {})
        for node in adjacency[via]:
            if node not in paths and learns(via, node):
                if node not in bucket or via < bucket[node]:
                    bucket[node] = via

    for via in exporters:
        offer(via)
    while offers:
        bucket = offers.pop(min(offers))
        settled = [node for node in bucket if node not in paths]
        for node in settled:
            paths[node] = (bucket[node],) + paths[bucket[node]]
        if onward:
            for node in settled:
                offer(node)


def _live_adjacency(scenario: Scenario) -> Dict[str, List[str]]:
    """The scenario's graph minus down links, crashed routers and, while
    it is withdrawn, the origin."""
    live = {node.name for node in scenario.network.nodes if node.alive}
    if not scenario.origin.is_up:
        live.discard(scenario.origin.name)
    adjacency: Dict[str, List[str]] = {name: [] for name in live}
    for link in scenario.network.links:
        if link.up and link.a in live and link.b in live:
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
    return adjacency


def check_converged_invariants(scenario: Scenario) -> InvariantReport:
    """Check a drained scenario against its solved stable state.

    Two invariants per router: ``stable-state`` (the Loc-RIB path equals
    :func:`stable_routing` on the live graph; no route where it gives
    none) and ``drain`` (no entry is still suppressed — reuse timers are
    bounded by the hold-down ceiling, so a drained queue has released
    them all).
    """
    prefix = scenario.config.prefix
    expected = stable_routing(
        _live_adjacency(scenario), scenario.origin.name, scenario.relationship
    )
    # Lost updates are never re-sent, so a lossy link can leave the
    # network off its stable state; say how many this episode lost.
    collector = scenario.collector
    lost = "" if collector is None else (
        f" ({collector.drops_by_reason().get('loss', 0)} update(s) lost "
        f"to link loss this episode)"
    )
    report = InvariantReport(routers_checked=len(scenario.routers))
    for name, router in scenario.routers.items():
        best = router.best_route(prefix)
        held = best.as_path if best is not None else None
        want = expected.get(name)
        if held != want:
            report.violations.append(
                InvariantViolation(
                    name, "stable-state", f"Loc-RIB {held} != stable {want}{lost}"
                )
            )
        suppressed = router.suppressed_entry_count()
        if suppressed:
            report.violations.append(
                InvariantViolation(
                    name, "drain", f"{suppressed} entries still suppressed"
                )
            )
    return report
