"""Runtime verification of whole-network protocol invariants.

A converged path-vector network must satisfy global safety properties
regardless of what happened on the way: loop-free realisable paths,
Loc-RIBs that equal the decision-process winner over the currently
usable candidates, and no suppressed entries after a full drain. The
property-based tests drive random workloads through
:func:`check_converged_invariants`; users can call it after their own
experiments as a cheap "did the simulation stay sane?" oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bgp.decision import select_best
from repro.errors import SimulationError
from repro.workload.scenarios import Scenario


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


def check_converged_invariants(
    scenario: Scenario,
    expect_reachable: bool = True,
    expect_drained: bool = True,
) -> InvariantReport:
    """Verify every router of a (supposedly) converged scenario.

    Parameters
    ----------
    scenario:
        A scenario whose engine queue has drained.
    expect_reachable:
        Assert every router has a route (set ``False`` when the origin's
        final state is down).
    expect_drained:
        Assert no entry is still suppressed (always true after a full
        drain, since reuse timers are bounded by the hold-down ceiling).
    """
    prefix = scenario.config.prefix
    report = InvariantReport()

    def violation(router: str, invariant: str, detail: str) -> None:
        report.violations.append(InvariantViolation(router, invariant, detail))

    for router in scenario.routers.values():
        report.routers_checked += 1
        best = router.best_route(prefix)

        if best is None:
            if expect_reachable:
                violation(router.name, "reachability", "no route after drain")
            continue

        if len(set(best.as_path)) != len(best.as_path):
            violation(router.name, "loop-freedom", f"repeated AS in {best.as_path}")
        if router.name in best.as_path:
            violation(router.name, "loop-freedom", f"self in path {best.as_path}")

        hops = (router.name,) + best.as_path
        for a, b in zip(hops, hops[1:]):
            if not scenario.network.has_link(a, b):
                violation(router.name, "realisability", f"phantom hop {a}-{b}")
                break

        candidates = router._candidates(prefix)
        winner = select_best(candidates, router._local_pref)
        if winner is None or winner[1] != best:
            violation(
                router.name,
                "decision-consistency",
                f"Loc-RIB {best.as_path} != winner "
                f"{winner[1].as_path if winner else None}",
            )

        if expect_drained and router.suppressed_entry_count() > 0:
            violation(
                router.name,
                "drain",
                f"{router.suppressed_entry_count()} entries still suppressed",
            )

    return report
