"""Convergence as a function of distance from the instability.

The paper's Figure 7 picks a router "7 hops away from originAS" because
distance matters: remote routers see more exploration (more alternate
paths between them and the origin) and their reuse timers interact over
longer chains. This module aggregates per-router convergence instants —
the time of each router's *last* Loc-RIB change — by hop distance from
the ISP, producing the distance profile of an episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.topology.model import bfs_depths
from repro.workload.scenarios import FlapRunResult, Scenario


@dataclass(frozen=True)
class DistanceBucket:
    """Convergence statistics for all routers at one hop distance."""

    hops: int
    router_count: int
    #: Mean/max seconds from the origin's final announcement to each
    #: router's last best-path change (0 for routers that settled before
    #: the final announcement).
    mean_settle: float
    max_settle: float
    #: How many routers at this distance suppressed at least one entry.
    routers_with_suppression: int


def convergence_by_distance(
    scenario: Scenario, result: FlapRunResult
) -> List[DistanceBucket]:
    """Distance profile of one finished episode."""
    prefix = scenario.config.prefix
    reference: Optional[float] = result.final_announcement_time
    distances = bfs_depths(scenario.config.topology.adjacency, scenario.isp)
    suppressors = set(result.collector.routers_with_suppressions())

    by_hops: Dict[int, List[str]] = {}
    for name, hops in distances.items():
        by_hops.setdefault(hops, []).append(name)

    buckets: List[DistanceBucket] = []
    for hops in sorted(by_hops):
        names = by_hops[hops]
        settles: List[float] = []
        suppression_count = 0
        for name in names:
            router = scenario.routers[name]
            last_change = router.last_best_change.get(prefix)
            if last_change is None or reference is None:
                settles.append(0.0)
            else:
                settles.append(max(0.0, last_change - reference))
            if name in suppressors:
                suppression_count += 1
        buckets.append(
            DistanceBucket(
                hops=hops,
                router_count=len(names),
                mean_settle=sum(settles) / len(settles),
                max_settle=max(settles),
                routers_with_suppression=suppression_count,
            )
        )
    return buckets
