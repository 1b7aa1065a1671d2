"""The determinism (DET) rule catalogue.

Every rule subclasses :class:`~repro.lint.framework.Rule` and inspects
one file's AST through a :class:`~repro.lint.framework.FileContext`.
The SEM, TIM and PERF catalogues live in :mod:`repro.lint.semantics`,
:mod:`repro.lint.timers` and :mod:`repro.lint.perf`; importing this
module pulls them in, so ``RULE_IDS`` below always spells the full
catalogue.

The determinism catalogue (see ``docs/STATIC_ANALYSIS.md`` for rationale
and examples):

========  ==========================================================
DET002    module-level ``random.*`` calls / literal-seeded ``Random``
DET006    re-entrant ``Engine.run`` from an event callback (closure)
DET010    process fan-out outside the deterministic sweep executor
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

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
# DET010 — process fan-out outside the sweep executor
# ----------------------------------------------------------------------

#: Modules allowed to start processes: the deterministic sweep
#: executor, and nothing else.
EXECUTOR_MODULES: Tuple[str, ...] = ("repro.experiments.parallel",)
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
        "Processes started outside repro.experiments.parallel bypass "
        "the executor that keeps parallel sweeps digest-identical to "
        "sequential ones: it forks only from a single-threaded process, "
        "at points where the child's state is exactly a fresh point's, "
        "and joins results in submission order. An ad-hoc fork inherits "
        "RNG streams and module caches mid-use, and ad-hoc result "
        "collection depends on completion order."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_packages(EXECUTOR_MODULES):
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
