"""The detlint (determinism) rule catalogue.

Every rule subclasses :class:`~repro.lint.framework.Rule` and inspects
one file's AST through a :class:`~repro.lint.framework.FileContext`.
The protocol-semantics catalogue (SEM001..) lives in
:mod:`repro.lint.semantics`; importing this module pulls both in, so
``RULE_IDS`` below always spells the full catalogue.

The determinism catalogue (see ``docs/STATIC_ANALYSIS.md`` for rationale
and examples):

========  ==========================================================
DET001    wall-clock reads (``time.time``, ``datetime.now``, ...)
DET002    module-level ``random.*`` calls / literal-seeded ``Random``
DET003    iteration over sets (unordered, PYTHONHASHSEED-dependent)
DET004    ``hash()``/``id()`` as a sort key or mapping key
DET005    ``==``/``!=`` on simulated-time floats
DET006    re-entrant ``Engine.run`` from an event callback (closure)
DET007    environment/filesystem access inside protected packages
DET008    mutable default arguments in public simulator APIs
DET009    unsorted filesystem iteration (``os.listdir``, ``glob``, ...)
DET010    process fan-out outside the deterministic sweep executor
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.effects import TIME_NAMES
from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    Rule,
    all_rule_ids,
    iter_calls,
    iter_rules,
    register,
)

__all__ = [
    "RULE_IDS",
    "FileContext",
    "Rule",
    "all_rule_ids",
    "iter_rules",
    "register",
]


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
# ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """Simulated time must come from ``Engine.now``, never the host clock."""

    id = "DET001"
    title = "wall-clock read"
    rationale = (
        "Host-clock reads make runs irreproducible; all timing must come "
        "from the simulation engine's clock."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context):
            name = context.qualified_name(call.func)
            if name in _WALL_CLOCK_CALLS:
                yield context.finding(
                    self, call, f"wall-clock call {name}() — use Engine.now instead"
                )


# ----------------------------------------------------------------------
# DET002 — global random state
# ----------------------------------------------------------------------

_MODULE_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register
class GlobalRandomRule(Rule):
    """Randomness must flow through named ``RngRegistry`` streams."""

    id = "DET002"
    title = "global/aliased random stream"
    rationale = (
        "Module-level random.* calls share hidden global state, and "
        "literal-seeded random.Random(N) fallbacks silently alias streams "
        "across call sites; derive a named stream from RngRegistry or "
        "accept an injected random.Random."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context):
            name = context.qualified_name(call.func)
            if name is None or not name.startswith("random."):
                continue
            func = name[len("random.") :]
            if func in _MODULE_RANDOM_FUNCS:
                yield context.finding(
                    self,
                    call,
                    f"module-level {name}() uses the shared global RNG — "
                    "use a named RngRegistry stream",
                )
            elif func == "Random" and self._literal_seeded(call):
                yield context.finding(
                    self,
                    call,
                    "random.Random with a hard-coded literal seed aliases "
                    "streams across call sites — derive a named RngRegistry "
                    "stream instead",
                )

    @staticmethod
    def _literal_seeded(call: ast.Call) -> bool:
        if call.keywords:
            return False
        if not call.args:
            return True  # unseeded: seeds from the OS entropy pool
        return len(call.args) == 1 and isinstance(call.args[0], ast.Constant)


# ----------------------------------------------------------------------
# DET003 — iteration over sets
# ----------------------------------------------------------------------


@register
class SetIterationRule(Rule):
    """Iterating a set yields PYTHONHASHSEED-dependent order."""

    id = "DET003"
    title = "iteration over an unordered set"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomisation; anything that feeds scheduling, digests, or "
        "exported output must iterate a sorted() or otherwise ordered view."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, ast.comprehension):
                iters.append(node.iter)
            for target in iters:
                if self._is_set_expression(context, target):
                    yield context.finding(
                        self,
                        target,
                        "iteration over a set has nondeterministic order — "
                        "wrap it in sorted()",
                    )

    @staticmethod
    def _is_set_expression(context: FileContext, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return context.qualified_name(node.func) in ("set", "frozenset")
        return False


# ----------------------------------------------------------------------
# DET004 — hash()/id() as ordering keys
# ----------------------------------------------------------------------

_ORDERING_FUNCS = frozenset({"sorted", "min", "max", "sort"})


@register
class HashOrderingRule(Rule):
    """``hash()``/``id()`` values vary across processes and runs."""

    id = "DET004"
    title = "hash()/id() used as an ordering or mapping key"
    rationale = (
        "hash() depends on PYTHONHASHSEED and id() on allocation order; "
        "using either to order or key output makes it run-dependent."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.Call):
                yield from self._check_sort_key(context, node)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._uses_hash_or_id(key):
                        yield context.finding(
                            self, key, "hash()/id() used as a dict key"
                        )
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if self._uses_hash_or_id(node.slice):
                    yield context.finding(
                        self, node, "hash()/id() used as a mapping key"
                    )

    def _check_sort_key(
        self, context: FileContext, call: ast.Call
    ) -> Iterator[Finding]:
        func_name = context.qualified_name(call.func)
        if isinstance(call.func, ast.Attribute):
            func_name = call.func.attr  # method calls like list.sort
        if func_name not in _ORDERING_FUNCS:
            return
        for keyword in call.keywords:
            if keyword.arg == "key" and self._uses_hash_or_id(keyword.value):
                yield context.finding(
                    self,
                    keyword.value,
                    f"hash()/id() as the sort key of {func_name}()",
                )

    @staticmethod
    def _uses_hash_or_id(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in ("hash", "id"):
            return True
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("hash", "id")
            ):
                return True
        return False


# ----------------------------------------------------------------------
# DET005 — float equality on simulated time
# ----------------------------------------------------------------------


@register
class TimeEqualityRule(Rule):
    """Exact equality on simulated-time floats is fragile."""

    id = "DET005"
    title = "==/!= comparison of simulated-time floats"
    rationale = (
        "Simulated instants are floats accumulated through arithmetic; "
        "exact equality silently depends on rounding and breaks under "
        "refactors — compare with a tolerance or restructure."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_nan_check(left, right):
                    continue
                if self._is_exempt_operand(left) or self._is_exempt_operand(right):
                    continue
                if self._is_time_operand(left) or self._is_time_operand(right):
                    yield context.finding(
                        self,
                        node,
                        "exact ==/!= on a simulated-time float — use a "
                        "tolerance (abs(a - b) <= eps)",
                    )
                    break

    @staticmethod
    def _is_time_operand(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in TIME_NAMES
        if isinstance(node, ast.Name):
            return node.id in TIME_NAMES
        return False

    @staticmethod
    def _is_nan_check(left: ast.expr, right: ast.expr) -> bool:
        """``x != x`` is the standard NaN test, not an ordering hazard."""
        return ast.dump(left) == ast.dump(right)

    @staticmethod
    def _is_exempt_operand(node: ast.expr) -> bool:
        """Comparisons against None or strings are identity/tag checks."""
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, str)
        )


# ----------------------------------------------------------------------
# DET006 — re-entrant engine runs from callbacks
# ----------------------------------------------------------------------

_ENGINE_RUN_METHODS = frozenset({"run", "run_until_idle", "step"})
_ENGINE_RECEIVERS = frozenset({"engine", "_engine"})


@register
class ReentrantRunRule(Rule):
    """Event callbacks must not drive the engine that is driving them."""

    id = "DET006"
    title = "re-entrant Engine.run from an event callback"
    rationale = (
        "A callback calling Engine.run/step re-enters the dispatch loop; "
        "the engine raises at runtime, but the hazard should be caught "
        "before a simulation ever executes."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _ENGINE_RUN_METHODS:
                continue
            if not self._is_engine_receiver(func.value):
                continue
            if self._inside_nested_function(context, call):
                yield context.finding(
                    self,
                    call,
                    f"engine.{func.attr}() inside a closure/event callback "
                    "re-enters the dispatch loop",
                )

    @staticmethod
    def _is_engine_receiver(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _ENGINE_RECEIVERS
        if isinstance(node, ast.Attribute):  # self.engine / self._engine
            return node.attr in _ENGINE_RECEIVERS
        return False

    @staticmethod
    def _inside_nested_function(context: FileContext, node: ast.AST) -> bool:
        """True inside a lambda or a def nested in another def — the shapes
        that get scheduled as event callbacks. Plain methods and
        module-level functions drive the engine legitimately."""
        seen_function = False
        current: Optional[ast.AST] = context.parent(node)
        while current is not None:
            if isinstance(current, ast.Lambda):
                return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if seen_function:
                    return True
                seen_function = True
            current = context.parent(current)
        return False


# ----------------------------------------------------------------------
# DET007 — ambient environment access in protected packages
# ----------------------------------------------------------------------

_ENV_CALLS = frozenset(
    {"os.getenv", "os.putenv", "os.system", "os.popen", "os.listdir", "io.open"}
)
_FS_METHODS = frozenset({"read_text", "read_bytes", "write_text", "write_bytes"})


@register
class AmbientEnvironmentRule(Rule):
    """The deterministic core must not read ambient process state."""

    id = "DET007"
    title = "environment/filesystem access in the deterministic core"
    rationale = (
        "repro.core / repro.sim / repro.bgp results must be a pure "
        "function of (config, seed); environment variables and file "
        "contents are inputs the seed does not capture."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.config.is_protected_module(context.module):
            return
        for node in context.nodes:
            if isinstance(node, ast.Attribute):
                if context.qualified_name(node) == "os.environ":
                    yield context.finding(
                        self, node, "os.environ read in the deterministic core"
                    )
            elif isinstance(node, ast.Call):
                name = context.qualified_name(node.func)
                if name in _ENV_CALLS or name == "open":
                    yield context.finding(
                        self,
                        node,
                        f"{name}() in the deterministic core — inject the "
                        "data through configuration instead",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FS_METHODS
                ):
                    yield context.finding(
                        self,
                        node,
                        f".{node.func.attr}() filesystem access in the "
                        "deterministic core",
                    )


# ----------------------------------------------------------------------
# DET008 — mutable defaults in public APIs
# ----------------------------------------------------------------------


@register
class MutableDefaultRule(Rule):
    """Mutable defaults leak state between otherwise independent runs."""

    id = "DET008"
    title = "mutable default argument in a public API"
    rationale = (
        "A list/dict/set default is created once and shared by every "
        "call, so one simulation's state bleeds into the next; default "
        "to None and construct inside the function."
    )

    _MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield context.finding(
                        self,
                        default,
                        f"mutable default argument in public API "
                        f"{node.name}() — use None and construct inside",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CONSTRUCTORS
        return False


# ----------------------------------------------------------------------
# DET009 — unsorted filesystem iteration
# ----------------------------------------------------------------------

#: Fully qualified calls whose result order is filesystem-dependent.
_FS_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
#: Path-object methods with filesystem-dependent order. ``glob`` is
#: matched as a method (``some_path.glob(...)``) — the module-level
#: ``glob.glob`` resolves through the alias map above instead.
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})


@register
class UnsortedFsIterationRule(Rule):
    """Directory listing order is an OS detail, not a guarantee."""

    id = "DET009"
    title = "unsorted filesystem iteration"
    rationale = (
        "os.listdir()/glob.glob()/Path.iterdir() return entries in "
        "filesystem order, which differs across platforms and even "
        "across runs on some filesystems; wrap the listing in sorted() "
        "before iterating or emitting it."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context):
            name = self._listing_name(context, call)
            if name is None:
                continue
            if self._inside_sorted(context, call):
                continue
            yield context.finding(
                self,
                call,
                f"{name}() yields entries in filesystem order — wrap the "
                "listing in sorted()",
            )

    @staticmethod
    def _listing_name(context: FileContext, call: ast.Call) -> Optional[str]:
        qualified = context.qualified_name(call.func)
        if qualified in _FS_LISTING_CALLS:
            return qualified
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _FS_LISTING_METHODS
            and qualified not in _FS_LISTING_CALLS
            and not (qualified or "").startswith("glob.")
        ):
            return f".{call.func.attr}"
        return None

    @staticmethod
    def _inside_sorted(context: FileContext, node: ast.AST) -> bool:
        """True when the listing feeds a ``sorted(...)`` call, possibly
        through a comprehension or generator expression."""
        current: Optional[ast.AST] = context.parent(node)
        while current is not None:
            if isinstance(current, ast.Call):
                func = current.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    return True
                current = context.parent(current)
                continue
            if isinstance(
                current,
                (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.comprehension),
            ):
                current = context.parent(current)
                continue
            return False
        return False


# ----------------------------------------------------------------------
# DET010 — process fan-out outside the sweep executor
# ----------------------------------------------------------------------

#: Top-level packages whose import anywhere outside the executor module
#: signals ad-hoc process fan-out.
_PARALLELISM_PACKAGES = frozenset({"multiprocessing", "concurrent"})
#: Process-creating calls caught even without an offending import
#: (``os`` is imported for many legitimate reasons).
_PROCESS_SPAWN_CALLS = frozenset({"os.fork", "os.forkpty"})


@register
class AdHocParallelismRule(Rule):
    """All process fan-out must go through the deterministic executor."""

    id = "DET010"
    title = "process fan-out outside the sweep executor"
    rationale = (
        "Worker pools built outside repro.experiments.parallel bypass "
        "the spawn-safe, seed-derived, order-preserving executor that "
        "guarantees parallel sweeps stay digest-identical to sequential "
        "ones; forked workers inherit RNG streams and module caches, and "
        "ad-hoc result collection depends on completion order."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.config.is_executor_module(context.module):
            return
        for node in context.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    package = alias.name.split(".")[0]
                    if package in _PARALLELISM_PACKAGES:
                        yield context.finding(
                            self,
                            node,
                            f"import of {alias.name} outside the sweep "
                            "executor — route fan-out through "
                            "repro.experiments.parallel",
                        )
            elif isinstance(node, ast.ImportFrom):
                package = (node.module or "").split(".")[0]
                if node.level == 0 and package in _PARALLELISM_PACKAGES:
                    yield context.finding(
                        self,
                        node,
                        f"import from {node.module} outside the sweep "
                        "executor — route fan-out through "
                        "repro.experiments.parallel",
                    )
        for call in iter_calls(context):
            qualified = context.qualified_name(call.func)
            if qualified in _PROCESS_SPAWN_CALLS:
                yield context.finding(
                    self,
                    call,
                    f"{qualified}() outside the sweep executor — route "
                    "fan-out through repro.experiments.parallel",
                )


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

# Importing the semantics, timers and perf modules registers the SEM,
# TIM and PERF passes; they live in their own files but share this
# registry, so RULE_IDS spells all four catalogues.
import repro.lint.perf  # noqa: E402,F401  (registers PERF rules)
import repro.lint.semantics  # noqa: E402,F401  (registers SEM rules)
import repro.lint.timers  # noqa: E402,F401  (registers TIM rules)

RULE_IDS: Tuple[str, ...] = tuple(sorted(all_rule_ids()))
