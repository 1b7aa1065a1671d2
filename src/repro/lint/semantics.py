"""The semlint (protocol-semantics) rule catalogue.

Where detlint polices *determinism* hazards, these rules police the
semantic contracts of the RFD/BGP layers themselves — the invariants the
runtime oracle (:mod:`repro.analysis.invariants`) checks dynamically,
caught here before a simulation ever runs:

========  ==========================================================
SEM001    decision-process functions must be effect-free
SEM002    timer scheduling only through Engine/Timer APIs
SEM003    penalty arithmetic only with named ``core.params`` constants
SEM004    no ``==``/``!=`` on time-valued expressions
SEM005    Loc-RIB mutation without metrics/stats notification
SEM006    RCN sequence numbers compared with equality, not ordering
SEM007    suppression state flipped outside the damping manager
========  ==========================================================

SEM001 rides on the effect-inference engine in :mod:`repro.lint.effects`
(see ``docs/STATIC_ANALYSIS.md`` for the model); the rest are targeted
syntactic checks scoped by the module knobs on
:class:`~repro.lint.config.LintConfig`.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional

from repro.lint.effects import TIME_NAMES
from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, iter_calls, register

__all__ = [
    "DecisionPurityRule",
    "HandRolledTimerRule",
    "MagicPenaltyConstantRule",
    "TimeExpressionEqualityRule",
    "UnobservedRibMutationRule",
    "SequenceEqualityRule",
    "ForeignSuppressionWriteRule",
]


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
        "history-dependent and breaks the decision-consistency invariant "
        "the runtime oracle checks."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.config.is_decision_module(context.module):
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
        if context.config.is_timer_module(context.module):
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
# SEM003 — penalty arithmetic uses named constants
# ----------------------------------------------------------------------

#: Names that carry RFC 2439 figure-of-merit quantities.
_PENALTY_TOKENS: FrozenSet[str] = frozenset(
    {
        "penalty",
        "figure_of_merit",
        "cutoff",
        "cutoff_threshold",
        "suppress_threshold",
        "reuse_threshold",
        "half_life",
        "max_penalty",
        "penalty_ceiling",
        "ceiling",
    }
)

#: Structural values that appear in any arithmetic (identity, doubling
#: for half-life decay, sign flips) — not damping parameters.
_EXEMPT_VALUES: FrozenSet[float] = frozenset({0.0, 1.0, 2.0, -1.0, 0.5})


def _is_penalty_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _PENALTY_TOKENS
    if isinstance(node, ast.Attribute):
        return node.attr in _PENALTY_TOKENS
    return False


def _magic_number(node: ast.expr) -> Optional[float]:
    """The numeric value of a non-exempt literal constant, else None."""
    inner = node
    negate = False
    if isinstance(inner, ast.UnaryOp) and isinstance(inner.op, ast.USub):
        negate = True
        inner = inner.operand
    if not isinstance(inner, ast.Constant):
        return None
    value = inner.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    number = -float(value) if negate else float(value)
    if number in _EXEMPT_VALUES:
        return None
    return number


@register
class MagicPenaltyConstantRule(Rule):
    """Damping parameters live in ``core.params``, not inline literals."""

    id = "SEM003"
    title = "magic numeric literal in penalty arithmetic"
    rationale = (
        "Cutoff, reuse, half-life, and ceiling values are vendor-profile "
        "parameters (core.params.DampingParams); a literal next to a "
        "penalty quantity silently forks the profile and invalidates "
        "sweeps that think they control it."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.config.is_penalty_module(context.module):
            return
        for node in context.nodes:
            if isinstance(node, ast.BinOp):
                pairs = [(node.left, node.right), (node.right, node.left)]
                for operand, other in pairs:
                    number = _magic_number(other)
                    if number is not None and _is_penalty_operand(operand):
                        yield context.finding(
                            self,
                            node,
                            f"literal {number:g} combined with a penalty "
                            "quantity — name it in core.params instead",
                        )
                        break
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for left, right in zip(operands, operands[1:]):
                    flagged = False
                    for operand, other in ((left, right), (right, left)):
                        number = _magic_number(other)
                        if number is not None and _is_penalty_operand(operand):
                            yield context.finding(
                                self,
                                node,
                                f"penalty quantity compared against literal "
                                f"{number:g} — use a core.params threshold",
                            )
                            flagged = True
                            break
                    if flagged:
                        break


# ----------------------------------------------------------------------
# SEM004 — no equality on time-valued expressions
# ----------------------------------------------------------------------

#: APIs that return simulated instants or durations.
_TIME_RETURNING_CALLS: FrozenSet[str] = frozenset(
    {
        "peek_next_time",
        "reuse_timer_expiry",
        "reuse_delay",
        "time_to_reach",
        "time_until_reuse",
    }
)


def _is_time_expression(node: ast.expr) -> bool:
    """True for *computed* time values: arithmetic over a time name, or a
    call into a time-returning API. Bare names are DET005's territory."""
    if isinstance(node, ast.BinOp):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in TIME_NAMES:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in TIME_NAMES:
                return True
        return False
    if isinstance(node, ast.Call):
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _TIME_RETURNING_CALLS
    return False


@register
class TimeExpressionEqualityRule(Rule):
    """Computed instants must be compared with a tolerance or ordering."""

    id = "SEM004"
    title = "==/!= on a computed time expression"
    rationale = (
        "Derived instants (now + delay, decay horizons, reuse-timer "
        "expiries) accumulate float error; exact equality encodes a "
        "coincidence, not a contract — compare with a tolerance or an "
        "ordering. Complements DET005, which covers bare time operands."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_time_expression(left) or _is_time_expression(right):
                    yield context.finding(
                        self,
                        node,
                        "exact ==/!= on a computed time expression — use a "
                        "tolerance or an ordering comparison",
                    )
                    break


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
# SEM006 — RCN sequence numbers compared monotonically
# ----------------------------------------------------------------------

#: Names that carry root-cause-notification sequence numbers.
_SEQ_NAMES: FrozenSet[str] = frozenset(
    {"seq", "seq_num", "seqno", "sequence", "last_seq", "highest_seq"}
)


@register
class SequenceEqualityRule(Rule):
    """Staleness is an ordering question, not an equality question."""

    id = "SEM006"
    title = "equality-only comparison of RCN sequence numbers"
    rationale = (
        "Root-cause notifications supersede each other by sequence "
        "order; an ==/!= freshness test treats a *newer* RCN as a "
        "mismatch and reprocesses stale state — compare with >/>= "
        "against the highest sequence seen."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_none(left) or self._is_none(right):
                    continue
                if self._is_seq_operand(left) or self._is_seq_operand(right):
                    yield context.finding(
                        self,
                        node,
                        "RCN sequence compared with ==/!= — staleness must "
                        "be an ordering test (newer means strictly greater)",
                    )
                    break

    @staticmethod
    def _is_seq_operand(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _SEQ_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in _SEQ_NAMES
        return False

    @staticmethod
    def _is_none(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and node.value is None


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
        if context.config.is_damping_module(context.module):
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
