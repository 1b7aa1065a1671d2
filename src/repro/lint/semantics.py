"""The protocol-semantics (SEM) rule catalogue.

Where the DET rules police *determinism* hazards, these rules police the
semantic contracts of the RFD/BGP layers themselves — the invariants the
runtime oracle (:mod:`repro.analysis.invariants`) checks dynamically,
caught here before a simulation ever runs:

========  ==========================================================
SEM001    decision-process functions must be effect-free
SEM002    timer scheduling only through Engine/Timer APIs
SEM005    Loc-RIB mutation without metrics/stats notification
SEM007    suppression state flipped outside the damping manager
========  ==========================================================

SEM001 rides on the effect-inference engine in :mod:`repro.lint.effects`
(see ``docs/STATIC_ANALYSIS.md`` for the model); the rest are targeted
syntactic checks, scoped by the module constants below.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, register

__all__ = [
    "DecisionPurityRule",
    "HandRolledTimerRule",
    "UnobservedRibMutationRule",
    "ForeignSuppressionWriteRule",
]

#: Modules whose functions must be effect-free (SEM001).
DECISION_MODULES: Tuple[str, ...] = ("repro.bgp.decision",)

#: The timer/engine substrate allowed to do raw event bookkeeping (SEM002).
TIMER_MODULES: Tuple[str, ...] = ("repro.sim",)

#: The module allowed to flip suppression state directly (SEM007).
DAMPING_MODULES: Tuple[str, ...] = ("repro.core.damping",)


# ----------------------------------------------------------------------
# SEM001 — decision process must be effect-free
# ----------------------------------------------------------------------


@register
class DecisionPurityRule(Rule):
    """The BGP decision process is a pure total order over candidates."""

    id = "SEM001"
    title = "effectful function in a decision-process module"
    rationale = (
        "The decision process must be a pure function of its candidate "
        "set: scheduling timers, reading the clock, mutating RIBs, or "
        "sending updates from inside it makes best-path selection "
        "history-dependent, and the network may then converge off the "
        "stable state the runtime oracle solves for."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.in_packages(DECISION_MODULES):
            return
        for effects in context.effect_analysis().iter_functions():
            if effects.is_pure:
                continue
            yield context.finding(
                self,
                context.function_named[effects.qualname].node,
                f"decision-process function {effects.qualname}() must be "
                f"effect-free, but is classified {effects.classification}",
            )


# ----------------------------------------------------------------------
# SEM002 — timer scheduling only through Engine/Timer APIs
# ----------------------------------------------------------------------

#: Attribute slots that belong to the engine/timer substrate; a Store to
#: one of these outside ``repro.sim`` is hand-rolled timer bookkeeping.
_TIMER_INTERNAL_SLOTS: FrozenSet[str] = frozenset(
    {"_queue", "_expiry", "expiry", "_now"}
)


@register
class HandRolledTimerRule(Rule):
    """Future work is scheduled through the engine, never by hand."""

    id = "SEM002"
    title = "hand-rolled timer bookkeeping outside the timer substrate"
    rationale = (
        "Only repro.sim may touch the event heap, expiry slots, or the "
        "simulation clock directly; everyone else schedules through "
        "Engine.schedule/schedule_at/call_soon or the Timer API so that "
        "cancellation, tie detection, and determinism auditing see every "
        "event."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_packages(TIMER_MODULES):
            return
        for node in context.nodes:
            if isinstance(node, ast.Call):
                name = context.qualified_name(node.func)
                if name is not None and name.startswith("heapq."):
                    yield context.finding(
                        self,
                        node,
                        f"{name}() manipulates an event heap by hand — "
                        "schedule through the Engine/Timer APIs",
                    )
                elif name is not None and name.split(".")[-1] == "ScheduledEvent":
                    yield context.finding(
                        self,
                        node,
                        "direct ScheduledEvent construction bypasses "
                        "Engine.schedule_at and its sequence numbering",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr in _TIMER_INTERNAL_SLOTS:
                    yield context.finding(
                        self,
                        node,
                        f"write to .{node.attr} arms/advances a timer by "
                        "hand — use the Engine/Timer APIs",
                    )


# ----------------------------------------------------------------------
# SEM005 — Loc-RIB mutations must notify metrics
# ----------------------------------------------------------------------

#: Receivers that denote the local RIB.
_LOC_RIB_RECEIVERS: FrozenSet[str] = frozenset({"loc_rib", "_loc_rib"})

#: Names whose presence in the same function witnesses a notification
#: (router stats, the metrics collector, or the best-change timestamp
#: the collector reads).
_NOTIFY_WITNESSES: FrozenSet[str] = frozenset(
    {"stats", "metrics", "collector", "observer", "last_best_change"}
)


@register
class UnobservedRibMutationRule(Rule):
    """Every Loc-RIB change must be visible to the metrics layer."""

    id = "SEM005"
    title = "Loc-RIB mutation without a metrics/stats notification"
    rationale = (
        "The convergence metrics and the drain invariant are computed "
        "from collector observations; a handler that rewrites the "
        "Loc-RIB without touching its stats/collector makes the run "
        "look quieter than it was."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for qualname in sorted(context.function_named):
            yield from self._check_function(
                context, context.function_named[qualname].node
            )

    def _check_function(
        self, context: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        mutations: List[ast.Call] = []
        notified = False
        for sub in self._walk_own_body(func):
            if isinstance(sub, ast.Call) and self._is_loc_rib_mutation(sub):
                mutations.append(sub)
            elif isinstance(sub, ast.Attribute) and sub.attr in _NOTIFY_WITNESSES:
                notified = True
            elif isinstance(sub, ast.Name) and sub.id in _NOTIFY_WITNESSES:
                notified = True
        if notified:
            return
        for call in mutations:
            yield context.finding(
                self,
                call,
                "Loc-RIB mutated without notifying stats/MetricsCollector "
                "in the same handler",
            )

    @staticmethod
    def _walk_own_body(func: ast.AST) -> Iterator[ast.AST]:
        """The function's subtree minus nested named defs, which get their
        own independent check. Lambdas stay included — they are anonymous
        callbacks and belong to whoever defines them."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_loc_rib_mutation(call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr != "set_route":
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id in _LOC_RIB_RECEIVERS
        if isinstance(receiver, ast.Attribute):
            return receiver.attr in _LOC_RIB_RECEIVERS
        return False


# ----------------------------------------------------------------------
# SEM007 — suppression state owned by the damping manager
# ----------------------------------------------------------------------


@register
class ForeignSuppressionWriteRule(Rule):
    """Only the damping manager flips routes in and out of suppression."""

    id = "SEM007"
    title = "suppression state written outside the damping manager"
    rationale = (
        "Suppression transitions must stay coupled to penalty decay and "
        "reuse-timer bookkeeping in DampingManager; a direct .suppressed "
        "write elsewhere desynchronises them and breaks the drain "
        "invariant (suppressed entries that no timer will ever release)."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_packages(DAMPING_MODULES):
            return
        for node in context.nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr == "suppressed"
            ):
                yield context.finding(
                    self,
                    node,
                    ".suppressed written outside the damping manager — "
                    "route suppression state through DampingManager",
                )
