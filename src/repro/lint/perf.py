"""The perflint (hot-path performance) rule catalogue.

The paper's regime — small per-event costs compounding across timer
interactions at scale — makes allocation and lookup churn on the engine
hot path a first-order correctness-of-scale concern. These rules flag
the hazard *patterns* everywhere but scope their *severity* by a
computed hot set: :func:`hot_functions` takes the root functions of the
five protocol phases (:data:`PHASE_ROOTS`), adds every function
registered as an engine/timer callback anywhere in the project, and
closes the set transitively over the cross-file call graph
(:mod:`repro.lint.callgraph`) — a pure function of the source tree.
Findings inside the hot set are ``warning`` (blocking in CI); outside it
they downgrade to ``info``.

The catalogue (see ``docs/STATIC_ANALYSIS.md`` for examples):

========  ==========================================================
PERF001   closure/lambda allocated per call on the hot path
PERF002   container display built per hot call / inside a hot loop
PERF003   repeated deep attribute chain in a loop (bind a local)
PERF004   eager string formatting (f-string/format/%) on the hot path
PERF005   module-level default container copied per call
PERF006   non-``__slots__`` class instantiated on the hot path
PERF007   list growth via ``+= [...]`` / ``x = x + [...]``
PERF008   membership test against ``.keys()``/``.items()``/``list(d)``
PERF009   logging call formatting its message eagerly
PERF010   constant tuple/set rebuilt per call (hoist to module level)
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import ProjectGraph, summarize
from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, register

#: Root functions of each protocol phase, keyed by the sub-phase labels
#: of :mod:`repro.sim.allocprobe`. The hot set is the transitive callee
#: closure of all of them: every phase has roots in a layer the
#: ``bench/`` split puts at or above 5 % of an episode, so no measured
#: profile would drop one.
PHASE_ROOTS: Dict[str, Tuple[str, ...]] = {
    "decision_process": (
        "repro.bgp.decision.preference_key",
        "repro.bgp.decision.select_best",
        "repro.bgp.decision.rank_candidates",
        "repro.bgp.router.BgpRouter.handle_message",
        "repro.bgp.router.BgpRouter.process_update",
        "repro.bgp.router.BgpRouter._reselect",
        "repro.bgp.router.BgpRouter._candidates",
    ),
    "penalty_decay": (
        "repro.core.damping.DampingManager.record_update",
        "repro.core.damping.DampingManager._reuse_fired",
        "repro.core.penalty.PenaltyState.value_at",
        "repro.core.penalty.PenaltyState.charge",
        "repro.core.penalty.PenaltyState.add",
        "repro.core.penalty.PenaltyState.touch",
        "repro.core.params.DampingParams.decay",
        "repro.core.params.DampingParams.penalty_increment",
        "repro.core.params.DampingParams.reuse_delay",
        "repro.core.params.DampingParams.time_to_reach",
    ),
    "rib_scan": (
        "repro.bgp.rib.AdjRibIn.apply",
        "repro.bgp.rib.AdjRibIn.classify",
        "repro.bgp.rib.LocRib.set_route",
        "repro.bgp.router.BgpRouter._export",
    ),
    "mrai_flush": (
        "repro.bgp.mrai.MraiLimiter.may_send_now",
        "repro.bgp.mrai.MraiLimiter.note_sent",
        "repro.bgp.mrai.MraiLimiter.defer",
        "repro.bgp.mrai.MraiLimiter._expired",
        "repro.bgp.router.BgpRouter._mrai_flush",
        "repro.bgp.router.BgpRouter._send_announcement",
        "repro.bgp.router.BgpRouter._send_withdrawal",
    ),
    "timer_dispatch": (
        "repro.sim.engine.Engine.step",
        "repro.sim.engine.Engine.run",
        "repro.sim.engine.Engine.run_until_idle",
        "repro.sim.engine.Engine._drain",
        "repro.sim.engine.Engine.schedule",
        "repro.sim.engine.Engine.schedule_at",
        "repro.sim.engine.call_soon",
        "repro.sim.timers.Timer.start",
        "repro.sim.timers.Timer.reschedule",
        "repro.sim.timers.Timer.restart_if_idle",
        "repro.sim.timers.Timer.cancel",
        "repro.sim.timers.Timer._arm",
        "repro.sim.timers.Timer._fire",
    ),
}


def hot_functions(project: ProjectGraph) -> FrozenSet[str]:
    """The hot set of ``project``: the call-graph closure of every
    :data:`PHASE_ROOTS` function it defines plus every function it
    registers as an engine/timer callback."""
    roots: Set[str] = set(project.callback_roots)
    for names in PHASE_ROOTS.values():
        roots.update(names)
    return project.closure(roots)


# ----------------------------------------------------------------------
# per-file analysis shared by the PERF rules
# ----------------------------------------------------------------------


class _FunctionScope:
    __slots__ = ("qualname", "node", "hot", "nodes")

    def __init__(
        self, qualname: str, node: ast.AST, hot: bool, nodes: List[ast.AST]
    ) -> None:
        self.qualname = qualname
        self.node = node
        self.hot = hot
        self.nodes = nodes


def _own_nodes(func: ast.AST) -> List[ast.AST]:
    """The nodes executed by ``func`` itself: its subtree minus the
    bodies of nested defs/lambdas (those are separate scopes). The
    nested ``def``/``lambda`` node itself *is* included — creating it is
    work the enclosing function does per call."""
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


class PerfAnalysis:
    """Hot-set-annotated function scopes of one file."""

    def __init__(self, context: FileContext) -> None:
        project = context.project
        if project is None:
            project = ProjectGraph([summarize(context)])
        hot = hot_functions(project)
        namespace = context.module if context.module is not None else context.path
        self.functions: List[_FunctionScope] = [
            _FunctionScope(
                qualname=entry.qualname,
                node=entry.node,
                hot=f"{namespace}.{entry.qualname}" in hot,
                nodes=_own_nodes(entry.node),
            )
            for entry in context.functions
        ]
        self._class_slots: Dict[str, bool] = {
            node.name: any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
                for stmt in node.body
            )
            for node in context.classes
        }
        self._module_names: Set[str] = set()
        for stmt in getattr(context.tree, "body", []):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._module_names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self._module_names.add(stmt.target.id)

    def class_lacks_slots(self, name: str) -> Optional[bool]:
        """True/False for same-file classes, None for unknown names."""
        if name not in self._class_slots:
            return None
        return not self._class_slots[name]

    def is_module_constant(self, name: str) -> bool:
        return name in self._module_names and name.isupper()


def perf_analysis(context: FileContext) -> PerfAnalysis:
    return context.perf_analysis()


def _hot_suffix(scope: _FunctionScope) -> str:
    if scope.hot:
        return f"in hot function '{scope.qualname}'"
    return f"in function '{scope.qualname}' (outside the profiled hot set)"


class PerfRule(Rule):
    """Base: iterate annotated function scopes, severity scoped by heat."""

    severity = "warning"

    def check(self, context: FileContext) -> Iterator[Finding]:
        analysis = perf_analysis(context)
        for scope in analysis.functions:
            for node, message in self.check_scope(scope, analysis, context):
                yield context.finding(
                    self,
                    node,
                    message,
                    severity="warning" if scope.hot else "info",
                )

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError


def _loops_in(scope: _FunctionScope) -> List[ast.AST]:
    return [n for n in scope.nodes if isinstance(n, (ast.For, ast.While))]


def _loop_nodes(loop: ast.AST) -> List[ast.AST]:
    """Nodes executed per iteration (nested defs/lambdas excluded)."""
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = []
    for field in ("body", "orelse"):
        stack.extend(getattr(loop, field, []))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _nearest_statement(context: FileContext, node: ast.AST) -> Optional[ast.AST]:
    current: Optional[ast.AST] = node
    while current is not None and not isinstance(current, ast.stmt):
        current = context.parent(current)
    return current


# ----------------------------------------------------------------------
# PERF001 — closure/lambda allocation
# ----------------------------------------------------------------------


@register
class HotClosureAllocationRule(PerfRule):
    id = "PERF001"
    title = "closure/lambda allocated per call on the hot path"
    rationale = (
        "Defining a lambda or nested function allocates a fresh code "
        "closure every time the enclosing function runs; on a per-event "
        "callback that cost compounds across millions of events. Bind "
        "the callable once (module level, method, functools.partial at "
        "setup time) instead."
    )

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if isinstance(node, ast.Lambda):
                yield node, f"lambda allocated per call {_hot_suffix(scope)}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, (
                    f"nested function '{node.name}' allocated per call "
                    f"{_hot_suffix(scope)}"
                )


# ----------------------------------------------------------------------
# PERF002 — container displays built per call / per iteration
# ----------------------------------------------------------------------


@register
class HotContainerDisplayRule(PerfRule):
    id = "PERF002"
    title = "container built per call / per loop iteration on the hot path"
    rationale = (
        "A dict/list/set display or comprehension allocates a fresh "
        "container each evaluation. Inside a hot loop, or as a >=3-entry "
        "display rebuilt on every hot call, the allocation dominates the "
        "work; hoist it to module/instance level or restructure."
    )

    _DISPLAYS = (ast.Dict, ast.List, ast.Set)
    _COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp)

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        in_loop: Set[int] = set()
        for loop in _loops_in(scope):
            for node in _loop_nodes(loop):
                if isinstance(node, self._DISPLAYS + self._COMPREHENSIONS):
                    if id(node) not in in_loop:
                        in_loop.add(id(node))
                        yield node, (
                            "container allocated every loop iteration "
                            f"{_hot_suffix(scope)}"
                        )
        for node in scope.nodes:
            if id(node) in in_loop:
                continue
            if isinstance(node, ast.Dict) and len(node.keys) >= 3:
                yield node, (
                    f"{len(node.keys)}-entry dict rebuilt per call "
                    f"{_hot_suffix(scope)}"
                )


# ----------------------------------------------------------------------
# PERF003 — repeated deep attribute chains in loops
# ----------------------------------------------------------------------


def _attribute_chain(node: ast.Attribute) -> Optional[str]:
    """Dotted string for a Name-rooted chain with >=2 attribute hops."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name) or len(parts) < 2:
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _loop_targets(loop: ast.AST) -> Set[str]:
    targets: Set[str] = set()
    if isinstance(loop, ast.For):
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                targets.add(node.id)
    return targets


@register
class RepeatedAttributeChainRule(PerfRule):
    id = "PERF003"
    title = "repeated deep attribute chain in a loop"
    rationale = (
        "Each `a.b.c` lookup is two dict probes; re-evaluating the same "
        "chain on every iteration of a hot loop multiplies that cost for "
        "a value that has not changed. Bind it to a local before the "
        "loop (`params = self.params`)."
    )

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for loop in _loops_in(scope):
            rebound = _loop_targets(loop)
            chains: Dict[str, List[ast.Attribute]] = {}
            for node in _loop_nodes(loop):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    chain = _attribute_chain(node)
                    if chain is None or chain.split(".")[0] in rebound:
                        continue
                    chains.setdefault(chain, []).append(node)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store
                ):
                    rebound.add(node.id)
            for chain, sites in sorted(chains.items()):
                # Only the full chain counts: `self.params.cutoff` also
                # walks as its prefix `self.params`; drop prefixes of
                # longer recorded chains to avoid double-reporting.
                if any(
                    other != chain and other.startswith(chain + ".")
                    for other in chains
                ):
                    continue
                if len(sites) >= 2:
                    first = min(
                        sites, key=lambda n: (n.lineno, n.col_offset)
                    )
                    yield first, (
                        f"attribute chain '{chain}' evaluated "
                        f"{len(sites)}x per loop iteration "
                        f"{_hot_suffix(scope)}; bind it to a local "
                        "before the loop"
                    )


# ----------------------------------------------------------------------
# PERF004 — eager string formatting
# ----------------------------------------------------------------------


def _is_format_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and isinstance(node.func.value, ast.Constant)
        and isinstance(node.func.value.value, str)
    )


def _is_percent_format(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    )


@register
class HotStringFormattingRule(PerfRule):
    id = "PERF004"
    title = "string formatting on the hot path"
    rationale = (
        "f-strings, str.format and %-formatting build a new string every "
        "call; on a per-event path the formatting usually feeds a debug "
        "artifact nobody reads. Format lazily (logger arguments, "
        "__repr__) or only on the error path. Raise/assert statements "
        "are exempt — they already left the hot path."
    )

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            kind: Optional[str] = None
            if isinstance(node, ast.JoinedStr):
                kind = "f-string"
            elif _is_format_call(node):
                kind = "str.format call"
            elif _is_percent_format(node):
                kind = "%-format expression"
            if kind is None:
                continue
            stmt = _nearest_statement(context, node)
            if isinstance(stmt, (ast.Raise, ast.Assert)):
                continue
            yield node, f"{kind} built per call {_hot_suffix(scope)}"


# ----------------------------------------------------------------------
# PERF005 — module-level default containers copied per call
# ----------------------------------------------------------------------


@register
class DefaultContainerCopyRule(PerfRule):
    id = "PERF005"
    title = "module-level default container copied per call"
    rationale = (
        "`dict(DEFAULTS)` / `DEFAULTS.copy()` per call allocates and "
        "copies on every invocation to defend a constant that is never "
        "mutated on most paths. Copy-on-write (only clone when actually "
        "overriding) or pass the shared mapping through read-only."
    )

    _FACTORIES = frozenset({"dict", "list", "set"})

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if not isinstance(node, ast.Call):
                continue
            name: Optional[str] = None
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "copy"
                and isinstance(node.func.value, ast.Name)
                and not node.args
            ):
                name = node.func.value.id
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in self._FACTORIES
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Name)
            ):
                name = node.args[0].id
            if name is not None and analysis.is_module_constant(name):
                yield node, (
                    f"module-level constant '{name}' copied per call "
                    f"{_hot_suffix(scope)}"
                )


# ----------------------------------------------------------------------
# PERF006 — non-__slots__ classes instantiated on the hot path
# ----------------------------------------------------------------------


@register
class NonSlotsInstantiationRule(PerfRule):
    id = "PERF006"
    title = "non-__slots__ class instantiated on the hot path"
    rationale = (
        "Instances without __slots__ carry a per-instance __dict__ "
        "(~100+ bytes and an extra allocation). Per-event result objects "
        "(outcomes, reuse events) are created millions of times in a "
        "sweep; give them __slots__."
    )

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            lacks = analysis.class_lacks_slots(node.func.id)
            if lacks:
                yield node, (
                    f"instantiating '{node.func.id}' (no __slots__) "
                    f"{_hot_suffix(scope)}"
                )


# ----------------------------------------------------------------------
# PERF007 — list growth by concatenation
# ----------------------------------------------------------------------


@register
class ListConcatGrowthRule(PerfRule):
    id = "PERF007"
    title = "list grown by concatenation on the hot path"
    rationale = (
        "`x += [item]` and `x = x + [item]` allocate a throwaway "
        "single-item list (and the latter recopies the whole list) on "
        "every execution; use append/extend with a generator, or "
        "preallocate."
    )

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.value, ast.List)
            ):
                yield node, (
                    "list grown via '+= [...]' "
                    f"{_hot_suffix(scope)}; use append/extend"
                )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)
                and isinstance(node.value.right, ast.List)
                and isinstance(node.value.left, ast.Name)
                and node.value.left.id == node.targets[0].id
            ):
                yield node, (
                    "list recopied via 'x = x + [...]' "
                    f"{_hot_suffix(scope)}; use append/extend"
                )


# ----------------------------------------------------------------------
# PERF008 — membership tests against materialized views
# ----------------------------------------------------------------------


@register
class MaterializedMembershipRule(PerfRule):
    id = "PERF008"
    title = "membership test against a materialized mapping view"
    rationale = (
        "`k in d.keys()` allocates a view object per test and `k in "
        "list(d)` / `k in d.items()` degrade O(1) hash probes to O(n) "
        "scans with a full materialization. Test against the mapping "
        "itself."
    )

    _VIEWS = frozenset({"keys", "items", "values"})
    _MATERIALIZERS = frozenset({"list", "tuple"})

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if not isinstance(comparator, ast.Call):
                    continue
                func = comparator.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._VIEWS
                    and not comparator.args
                ):
                    yield comparator, (
                        f"membership test against .{func.attr}() "
                        f"{_hot_suffix(scope)}; test the mapping directly"
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id in self._MATERIALIZERS
                    and len(comparator.args) == 1
                ):
                    yield comparator, (
                        f"membership test against {func.id}(...) "
                        f"{_hot_suffix(scope)}; test the container directly"
                    )


# ----------------------------------------------------------------------
# PERF009 — eagerly formatted logging calls
# ----------------------------------------------------------------------


@register
class EagerLoggingRule(PerfRule):
    id = "PERF009"
    title = "logging call formats its message eagerly"
    rationale = (
        "Passing an f-string (or .format/% result) to a logger builds "
        "the message even when the level is disabled; on the hot path "
        "that is pure waste. Use %-style lazy arguments "
        "(`log.debug(\"x=%s\", x)`) or guard with isEnabledFor."
    )

    _LOG_METHODS = frozenset(
        {"debug", "info", "warning", "error", "exception", "critical", "log"}
    )
    _LOG_RECEIVERS = frozenset({"logging", "logger", "log"})

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._LOG_METHODS
            ):
                continue
            receiver: Optional[str] = None
            if isinstance(node.func.value, ast.Name):
                receiver = node.func.value.id
            elif isinstance(node.func.value, ast.Attribute):
                receiver = node.func.value.attr
            if receiver is None:
                continue
            if receiver.lstrip("_") not in self._LOG_RECEIVERS:
                continue
            if any(
                isinstance(arg, ast.JoinedStr)
                or _is_format_call(arg)
                or _is_percent_format(arg)
                for arg in node.args
            ):
                yield node, (
                    f"logger.{node.func.attr}() message formatted "
                    f"eagerly {_hot_suffix(scope)}; pass lazy %-style "
                    "arguments"
                )


# ----------------------------------------------------------------------
# PERF010 — constant containers rebuilt per call
# ----------------------------------------------------------------------


def _constant_valued(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _constant_valued(node.operand)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"float", "int", "str", "bool", "complex", "frozenset"}
        and not node.keywords
        and all(_constant_valued(arg) for arg in node.args)
    ):
        return True
    return False


@register
class ConstantRebuildRule(PerfRule):
    id = "PERF010"
    title = "constant container rebuilt per call"
    rationale = (
        "A tuple/set whose elements need runtime construction (e.g. "
        "`(float(\"inf\"), float(\"-inf\"))`) defeats CPython's constant "
        "folding and is reallocated on every call. Hoist it to a module "
        "constant; purely literal displays are exempt (the compiler "
        "already folds them)."
    )

    _DISPLAYS = (ast.Tuple, ast.List, ast.Set)

    def check_scope(
        self, scope: _FunctionScope, analysis: PerfAnalysis, context: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope.nodes:
            if isinstance(node, self._DISPLAYS):
                elements = list(node.elts)
                if (
                    elements
                    and all(_constant_valued(el) for el in elements)
                    and any(isinstance(el, ast.Call) for el in elements)
                ):
                    yield node, (
                        "constant container rebuilt per call "
                        f"{_hot_suffix(scope)}; hoist to a module constant"
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
                and all(_constant_valued(arg) for arg in node.args)
            ):
                yield node, (
                    "re.compile of a constant pattern per call "
                    f"{_hot_suffix(scope)}; hoist to a module constant"
                )


PERF_RULE_IDS: Tuple[str, ...] = tuple(
    f"PERF{n:03d}" for n in range(1, 11)
)

__all__ = [
    "PERF_RULE_IDS",
    "PHASE_ROOTS",
    "PerfAnalysis",
    "hot_functions",
    "perf_analysis",
]
