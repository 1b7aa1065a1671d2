"""Intra-file call-graph and effect inference for the semlint and
timerlint passes.

Protocol-semantics rules need to know *what a function does*, not just
what tokens it contains. This module classifies every function (and
method) of one file into a set of effects:

``reads-clock``
    Reads simulated time (``engine.now`` / ``self._engine.now``).
``schedules-timer``
    Schedules future work — ``Engine.schedule``/``schedule_at``,
    ``call_soon``, ``Timer`` arming methods, or an API known to arm
    timers internally (``DampingManager.record_update``).
``cancels-timer``
    Disarms scheduled work — ``Timer.cancel`` / ``ScheduledEvent.cancel``
    (or ``cancel_all_timers``). The timerlint abstract interpreter uses
    this label to keep its handle-state tracking sound across helper
    calls: a callee that may cancel invalidates what the caller knows
    about its pending timers.
``mutates-rib``
    Writes routing state — ``LocRib.set_route``, Adj-RIB ``apply``.
``emits-update``
    Sends protocol messages (``Node.send``).

A function with none of these is *pure* — the contract the BGP decision
process must satisfy (rule SEM001). Inference is deliberately
lightweight and sound-ish rather than complete: effects are detected
syntactically (receiver and method names), then propagated transitively
over the intra-file call graph (bare-name calls resolve to module-level
functions, ``self.x()`` calls to methods of the enclosing class) until a
fixed point. Cross-file calls are covered by a small table of known
effectful APIs; unknown callees are assumed pure.

Nested functions and lambdas count toward the enclosing function's
effects: in an event-driven simulator a closure is created precisely to
be scheduled, so "defines an effectful callback" is treated as "has the
effect".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import FunctionEntry, enumerate_defs

#: Effect labels (the vocabulary of the classification).
READS_CLOCK = "reads-clock"
SCHEDULES_TIMER = "schedules-timer"
CANCELS_TIMER = "cancels-timer"
MUTATES_RIB = "mutates-rib"
EMITS_UPDATE = "emits-update"

ALL_EFFECTS: FrozenSet[str] = frozenset(
    {READS_CLOCK, SCHEDULES_TIMER, CANCELS_TIMER, MUTATES_RIB, EMITS_UPDATE}
)

#: Attribute names that denote simulated instants. Shared vocabulary of
#: DET005 (exact equality on bare time operands) and SEM004 (equality on
#: time-valued expressions).
TIME_NAMES: FrozenSet[str] = frozenset(
    {
        "now",
        "_now",
        "time",
        "expiry",
        "deadline",
        "sent_at",
        "delivered_at",
        "deliver_at",
        "attach_time",
        "start_time",
        "end_time",
        "fire_time",
    }
)

#: Receiver names that denote the simulation engine.
ENGINE_RECEIVERS: FrozenSet[str] = frozenset({"engine", "_engine"})

#: Method names that schedule future work regardless of receiver: the
#: engine's scheduling entry points plus the Timer life-cycle methods
#: (``reschedule``/``restart_if_idle`` are timer-specific names in this
#: codebase; plain ``start`` is too generic and needs a timer receiver).
_SCHEDULING_METHODS: FrozenSet[str] = frozenset(
    {"schedule", "schedule_at", "call_soon", "reschedule", "restart_if_idle"}
)

#: Method names that disarm scheduled work regardless of receiver —
#: ``cancel`` is timer/event vocabulary throughout this codebase.
_CANCELLING_METHODS: FrozenSet[str] = frozenset({"cancel", "cancel_all_timers"})

#: Method names that mutate routing state regardless of receiver.
_RIB_MUTATORS: FrozenSet[str] = frozenset({"set_route"})

#: Cross-module APIs known to carry an effect even though their body is
#: not visible to an intra-file analysis.
KNOWN_API_EFFECTS: Dict[str, str] = {
    "record_update": SCHEDULES_TIMER,  # DampingManager arms reuse timers
    "send": EMITS_UPDATE,  # Node.send / BgpRouter.send
}


@dataclass(frozen=True)
class FunctionEffects:
    """Inferred effect classification of one function."""

    qualname: str
    name: str
    line: int
    #: Effects evident in this function's own body (including closures).
    direct: FrozenSet[str]
    #: ``direct`` closed over the intra-file call graph.
    transitive: FrozenSet[str]
    #: Intra-file callees this function's transitive effects flowed from.
    calls: Tuple[str, ...]

    @property
    def is_pure(self) -> bool:
        return not self.transitive

    @property
    def classification(self) -> str:
        """Human-readable label: ``pure`` or a ``+``-joined effect list."""
        if self.is_pure:
            return "pure"
        return "+".join(sorted(self.transitive))


class EffectAnalysis:
    """Effect classification of every function in one file."""

    def __init__(self, functions: Dict[str, FunctionEffects]) -> None:
        self._functions = functions

    def function(self, qualname: str) -> Optional[FunctionEffects]:
        return self._functions.get(qualname)

    def iter_functions(self) -> Iterator[FunctionEffects]:
        for qualname in sorted(self._functions):
            yield self._functions[qualname]

    def impure_functions(self) -> List[FunctionEffects]:
        return [f for f in self.iter_functions() if not f.is_pure]

    def __len__(self) -> int:
        return len(self._functions)


def _receiver_name(node: ast.expr) -> Optional[str]:
    """Last name segment of a receiver expression (``self.engine`` ->
    ``engine``, ``entry.timer`` -> ``timer``, ``engine`` -> ``engine``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_self_call(func: ast.expr) -> Optional[str]:
    """Method name when ``func`` is ``self.<method>``, else None."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


def _direct_effects_of_call(call: ast.Call) -> Set[str]:
    effects: Set[str] = set()
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "call_soon":
            effects.add(SCHEDULES_TIMER)
        return effects
    if not isinstance(func, ast.Attribute):
        return effects
    method = func.attr
    receiver = _receiver_name(func.value)
    if method in _SCHEDULING_METHODS:
        effects.add(SCHEDULES_TIMER)
    elif method == "start" and receiver is not None and "timer" in receiver.lower():
        effects.add(SCHEDULES_TIMER)
    if method in _CANCELLING_METHODS:
        effects.add(CANCELS_TIMER)
    if method in _RIB_MUTATORS:
        effects.add(MUTATES_RIB)
    elif method == "apply" and receiver is not None and (
        "rib" in receiver.lower() or "table" in receiver.lower()
    ):
        effects.add(MUTATES_RIB)
    if method in KNOWN_API_EFFECTS:
        effects.add(KNOWN_API_EFFECTS[method])
    return effects


def _scan(entry: FunctionEntry) -> Tuple[Set[str], Set[Tuple[str, bool]]]:
    """One def's subtree (closures included): the effects evident in it,
    and a ``(name, is_self_call)`` token for every call it makes."""
    direct: Set[str] = set()
    callees: Set[Tuple[str, bool]] = set()
    for sub in entry.nodes:
        if isinstance(sub, ast.Attribute):
            if sub.attr == "now" and _receiver_name(sub.value) in ENGINE_RECEIVERS:
                direct.add(READS_CLOCK)
        elif isinstance(sub, ast.Call):
            direct.update(_direct_effects_of_call(sub))
            method = _is_self_call(sub.func)
            if method is not None:
                callees.add((method, True))
            elif isinstance(sub.func, ast.Name):
                callees.add((sub.func.id, False))
    return direct, callees


def analyze_effects(tree: ast.AST) -> EffectAnalysis:
    """Classify every function of one parsed file (the bare-tree entry
    point; a :class:`~repro.lint.framework.FileContext` hands its own
    function table to :func:`infer_effects`)."""
    return infer_effects(enumerate_defs(tree)[0])


def infer_effects(table: Sequence[FunctionEntry]) -> EffectAnalysis:
    """Classify every function of one file's function table.

    Effects are first detected per function body, then propagated over
    the intra-file call graph (bare names -> module-level functions,
    ``self.x()`` -> same-class methods) to a fixed point.
    """
    scanned = [(entry, *_scan(entry)) for entry in table]
    module_level = {
        entry.node.name: entry.qualname for entry in table if "." not in entry.qualname
    }
    by_class: Dict[str, Dict[str, str]] = {}
    for entry in table:
        if entry.owner_class is not None:
            by_class.setdefault(entry.owner_class, {})[entry.node.name] = entry.qualname

    edges: Dict[str, Set[str]] = {entry.qualname: set() for entry in table}
    for entry, _direct, tokens in scanned:
        for callee_name, is_self in tokens:
            target: Optional[str] = None
            if is_self and entry.owner_class is not None:
                target = by_class.get(entry.owner_class, {}).get(callee_name)
            elif not is_self:
                target = module_level.get(callee_name)
            if target is not None and target != entry.qualname:
                edges[entry.qualname].add(target)

    transitive: Dict[str, Set[str]] = {
        entry.qualname: set(direct) for entry, direct, _tokens in scanned
    }
    changed = True
    while changed:
        changed = False
        for qualname, callees in edges.items():
            for callee in callees:
                missing = transitive[callee] - transitive[qualname]
                if missing:
                    transitive[qualname].update(missing)
                    changed = True

    functions: Dict[str, FunctionEffects] = {}
    for entry, direct, _tokens in scanned:
        functions[entry.qualname] = FunctionEffects(
            qualname=entry.qualname,
            name=entry.node.name,
            line=entry.node.lineno,
            direct=frozenset(direct),
            transitive=frozenset(transitive[entry.qualname]),
            calls=tuple(sorted(edges[entry.qualname])),
        )
    return EffectAnalysis(functions)


__all__ = [
    "ALL_EFFECTS",
    "CANCELS_TIMER",
    "EMITS_UPDATE",
    "ENGINE_RECEIVERS",
    "EffectAnalysis",
    "FunctionEffects",
    "KNOWN_API_EFFECTS",
    "MUTATES_RIB",
    "READS_CLOCK",
    "SCHEDULES_TIMER",
    "TIME_NAMES",
    "analyze_effects",
    "infer_effects",
]
