"""The timer-lifecycle (TIM) rule catalogue: TIM001, TIM002, TIM006.

The paper's subject is what happens when damping's reuse/decay timers
interact with MRAI hold-offs, so the code arming those timers has to obey
a strict lifecycle. This pass enforces it statically:

``TIM001``  armed timer handle that never escapes and is never cancelled
``TIM002``  ``start()`` on a possibly-pending handle (double-arm)
``TIM006``  direct call of a timer-expiry internal (engine-boundary bypass)

TIM001 and TIM002 come from a small abstract interpreter over timer
handles (:func:`analyze_timers`): each function body is executed
abstractly, tracking for every local ``Timer`` handle the set of
lifecycle states it may be in (idle / pending / fired / cancelled),
joining at branches and iterating loop bodies. The interpreter leans on
the call-graph effect inference (:mod:`repro.lint.effects`): a handle
passed to an intra-file helper whose transitive effects include
``cancels-timer`` (and not ``schedules-timer``) is treated as cancelled
rather than escaped, so the blessed "helper disarms it for me" idiom
stays clean while a genuinely dropped armed handle is flagged.

The runtime counterpart is the opt-in timer audit
(:class:`repro.sim.timers.TimerAudit`, ``rfd-repro simulate
--audit-timers``): what this pass proves impossible statically, the audit
asserts dynamically — see ``tests/integration/test_timerlint_oracle.py``
for the cross-check and ``docs/STATIC_ANALYSIS.md`` for the catalogue.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.effects import CANCELS_TIMER, SCHEDULES_TIMER, EffectAnalysis
from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, iter_calls, register

#: Timer-expiry internals that must only ever run as engine callbacks —
#: calling them synchronously flushes reuse/MRAI state outside the event
#: boundary (the paper's cross-timer hazard, in code form).
FIRE_INTERNALS: FrozenSet[str] = frozenset({"_fire", "_expired", "_reuse_fired"})

#: The abstract lifecycle lattice (mirrors repro.sim.timers.TimerState).
_ALL_STATES: FrozenSet[str] = frozenset({"idle", "pending", "fired", "cancelled"})


def _is_timer_ctor(context: FileContext, call: ast.Call) -> bool:
    qualified = context.qualified_name(call.func)
    return qualified is not None and qualified.split(".")[-1] == "Timer"


# ----------------------------------------------------------------------
# the abstract interpreter behind TIM001 and TIM002
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimerViolation:
    """One lifecycle hazard found by the abstract interpreter."""

    kind: str  # "leak" | "double-arm"
    node: ast.AST
    handle: str
    function: str


class _HandleState:
    """What the interpreter knows about one local timer handle."""

    __slots__ = ("states", "escaped", "armed_node")

    def __init__(self) -> None:
        self.states: Set[str] = {"idle"}
        self.escaped = False
        #: The most recent arming call — the anchor for leak findings.
        self.armed_node: Optional[ast.AST] = None

    def copy(self) -> "_HandleState":
        dup = _HandleState()
        dup.states = set(self.states)
        dup.escaped = self.escaped
        dup.armed_node = self.armed_node
        return dup

    def join(self, other: "_HandleState") -> None:
        self.states |= other.states
        self.escaped = self.escaped or other.escaped
        if self.armed_node is None:
            self.armed_node = other.armed_node


_Env = Dict[str, _HandleState]


def _copy_env(env: _Env) -> _Env:
    return {name: state.copy() for name, state in env.items()}


def _join_envs(base: _Env, *others: _Env) -> _Env:
    joined = _copy_env(base)
    for env in others:
        for name, state in env.items():
            if name in joined:
                joined[name].join(state)
            else:
                joined[name] = state.copy()
    return joined


class _FunctionInterpreter:
    """Abstractly executes one function body over its timer handles."""

    def __init__(
        self,
        context: FileContext,
        qualname: str,
        owner_class: Optional[str],
        effects: EffectAnalysis,
    ) -> None:
        self._context = context
        self._qualname = qualname
        self._owner_class = owner_class
        self._effects = effects
        self.violations: List[TimerViolation] = []
        self._leak_keys: Set[Tuple[str, int, int]] = set()

    # -- reporting ------------------------------------------------------

    def _violate(self, kind: str, node: ast.AST, handle: str) -> None:
        self.violations.append(
            TimerViolation(
                kind=kind, node=node, handle=handle, function=self._qualname
            )
        )

    def _check_leaks(self, env: _Env) -> None:
        """Run at every return point: an armed, never-escaped, un-cancelled
        handle about to be dropped can never be disarmed again."""
        for name, state in env.items():
            if state.escaped or state.armed_node is None:
                continue
            if "pending" not in state.states:
                continue
            anchor = state.armed_node
            key = (
                name,
                getattr(anchor, "lineno", 0),
                getattr(anchor, "col_offset", 0),
            )
            if key in self._leak_keys:
                continue
            self._leak_keys.add(key)
            self._violate("leak", anchor, name)

    # -- callee resolution ---------------------------------------------

    def _callee_effects(self, func: ast.expr) -> Optional[FrozenSet[str]]:
        """Transitive effects of an intra-file callee, when resolvable."""
        qualname: Optional[str] = None
        if isinstance(func, ast.Name):
            qualname = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self._owner_class is not None
        ):
            qualname = f"{self._owner_class}.{func.attr}"
        if qualname is None:
            return None
        record = self._effects.function(qualname)
        return None if record is None else record.transitive

    # -- expression walking --------------------------------------------

    def _escape_handle(self, env: _Env, name: str) -> None:
        state = env.get(name)
        if state is not None:
            state.escaped = True
            state.states = set(_ALL_STATES)

    def _process_call(self, call: ast.Call, env: _Env) -> None:
        func = call.func
        receiver_name: Optional[str] = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in env
        ):
            receiver_name = func.value.id
        if receiver_name is not None:
            assert isinstance(func, ast.Attribute)
            self._transition(call, func.attr, env, receiver_name)
        else:
            self._process_expr(func, env)
        callee_effects = self._callee_effects(func)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Name) and arg.id in env:
                state = env[arg.id]
                if (
                    callee_effects is not None
                    and CANCELS_TIMER in callee_effects
                    and SCHEDULES_TIMER not in callee_effects
                ):
                    # The helper's only timer effect is disarming: model
                    # the handle as cancelled instead of lost.
                    state.states = {"cancelled"}
                else:
                    self._escape_handle(env, arg.id)
            else:
                self._process_expr(arg, env)

    def _transition(
        self, call: ast.Call, method: str, env: _Env, name: str
    ) -> None:
        state = env[name]
        if method == "start":
            if "pending" in state.states:
                self._violate("double-arm", call, name)
            state.states = {"pending"}
            state.armed_node = call
        elif method == "reschedule" or method == "restart_if_idle":
            state.states = {"pending"}
            state.armed_node = call
        elif method == "cancel":
            state.states = {"cancelled"}
        else:
            # Unknown method on the handle: havoc its lifecycle state but
            # keep tracking (attribute queries do not reach here — only
            # calls do, and e.g. a fixture's helper method could do
            # anything to the timer). Arguments are processed by the
            # caller (_process_call), not here.
            state.states = set(_ALL_STATES)

    def _process_expr(self, node: Optional[ast.AST], env: _Env) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._process_call(node, env)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id in env:
                # A bare use we do not model (container literal, compare,
                # return value, closure...) — assume the handle escapes.
                self._escape_handle(env, node.id)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in env:
                return  # benign query: t.is_pending, t.state, t.expiry...
            self._process_expr(node.value, env)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A closure may capture the handle; escape every captured one.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in env:
                    self._escape_handle(env, sub.id)
            return
        for child in ast.iter_child_nodes(node):
            self._process_expr(child, env)

    # -- statement walking ---------------------------------------------

    def _kill_target(self, target: ast.expr, env: _Env) -> None:
        if isinstance(target, ast.Name):
            env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._kill_target(element, env)

    def _exec_assign(
        self, targets: Sequence[ast.expr], value: Optional[ast.expr], env: _Env
    ) -> None:
        bound_ctor = (
            value is not None
            and isinstance(value, ast.Call)
            and _is_timer_ctor(self._context, value)
        )
        if not bound_ctor:
            self._process_expr(value, env)
        else:
            assert isinstance(value, ast.Call)
            for arg in list(value.args) + [kw.value for kw in value.keywords]:
                self._process_expr(arg, env)
        for target in targets:
            self._kill_target(target, env)
            self._process_expr(target if not isinstance(target, ast.Name) else None, env)
        if bound_ctor:
            for target in targets:
                if isinstance(target, ast.Name):
                    env[target.id] = _HandleState()

    def _exec_block(self, stmts: Sequence[ast.stmt], env: _Env) -> Tuple[_Env, bool]:
        """Returns the post-env and whether the block terminated early."""
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._exec_assign(stmt.targets, stmt.value, env)
            elif isinstance(stmt, ast.AnnAssign):
                self._exec_assign([stmt.target], stmt.value, env)
            elif isinstance(stmt, ast.AugAssign):
                self._process_expr(stmt.value, env)
            elif isinstance(stmt, ast.Expr):
                self._process_expr(stmt.value, env)
            elif isinstance(stmt, ast.Return):
                if isinstance(stmt.value, ast.Name) and stmt.value.id in env:
                    self._escape_handle(env, stmt.value.id)
                else:
                    self._process_expr(stmt.value, env)
                self._check_leaks(env)
                return env, True
            elif isinstance(stmt, ast.If):
                self._process_expr(stmt.test, env)
                then_env, then_done = self._exec_block(stmt.body, _copy_env(env))
                else_env, else_done = self._exec_block(stmt.orelse, _copy_env(env))
                if then_done and else_done:
                    return _join_envs(then_env, else_env), True
                if then_done:
                    env = else_env
                elif else_done:
                    env = then_env
                else:
                    env = _join_envs(then_env, else_env)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._process_expr(stmt.iter, env)
                self._kill_target(stmt.target, env)
                once, _ = self._exec_block(stmt.body, _copy_env(env))
                twice, _ = self._exec_block(stmt.body, _copy_env(once))
                env = _join_envs(env, once, twice)
                env, _ = self._exec_block(stmt.orelse, env)
            elif isinstance(stmt, ast.While):
                self._process_expr(stmt.test, env)
                once, _ = self._exec_block(stmt.body, _copy_env(env))
                twice, _ = self._exec_block(stmt.body, _copy_env(once))
                env = _join_envs(env, once, twice)
                env, _ = self._exec_block(stmt.orelse, env)
            elif isinstance(stmt, ast.Try):
                pre = _copy_env(env)
                body_env, body_done = self._exec_block(stmt.body, env)
                merged = body_env if not body_done else _copy_env(pre)
                for handler in stmt.handlers:
                    handler_env, _ = self._exec_block(
                        handler.body, _join_envs(pre, body_env)
                    )
                    merged = _join_envs(merged, handler_env)
                merged, _ = self._exec_block(stmt.orelse, merged)
                merged, _ = self._exec_block(stmt.finalbody, merged)
                env = merged
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._process_expr(item.context_expr, env)
                    if item.optional_vars is not None:
                        self._kill_target(item.optional_vars, env)
                env, done = self._exec_block(stmt.body, env)
                if done:
                    return env, True
            elif isinstance(stmt, ast.Raise):
                self._process_expr(stmt.exc, env)
                # Exception paths are excused from the leak check: the
                # error propagates and the run is over anyway.
                return env, True
            elif isinstance(stmt, (ast.Break, ast.Continue)):
                return env, True
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    self._kill_target(target, env)
            elif isinstance(stmt, ast.Assert):
                self._process_expr(stmt.test, env)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self._process_expr(stmt, env)
            # Import/Global/Nonlocal/Pass: nothing to do.
        return env, False

    def run(self, body: Sequence[ast.stmt]) -> None:
        env, terminated = self._exec_block(body, {})
        if not terminated:
            self._check_leaks(env)


class TimerAnalysis:
    """Lifecycle hazards of every function in one file."""

    def __init__(self, violations: List[TimerViolation]) -> None:
        self.violations = violations

    def by_kind(self, kind: str) -> List[TimerViolation]:
        return [v for v in self.violations if v.kind == kind]


def analyze_timers(context: FileContext) -> TimerAnalysis:
    """Run the abstract interpreter over every function of the file."""
    effects = context.effect_analysis()
    violations: List[TimerViolation] = []
    for entry in context.functions:
        interpreter = _FunctionInterpreter(
            context, entry.qualname, entry.owner_class, effects
        )
        interpreter.run(entry.node.body)
        violations.extend(interpreter.violations)
    violations.sort(
        key=lambda v: (
            getattr(v.node, "lineno", 0),
            getattr(v.node, "col_offset", 0),
            v.kind,
        )
    )
    return TimerAnalysis(violations)


# ----------------------------------------------------------------------
# TIM001, TIM002: interpreter-backed lifecycle rules
# ----------------------------------------------------------------------


@register
class TimerLeakRule(Rule):
    id = "TIM001"
    title = "armed timer handle is dropped without cancel or escape"
    rationale = (
        "A local Timer armed and then discarded can never be rescheduled "
        "or disarmed again: it will fire into stale state no matter what "
        "the protocol decides in between. Store the handle, cancel it, or "
        "use engine.schedule()/call_soon() for genuine fire-and-forget."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for violation in context.timer_analysis().by_kind("leak"):
            yield context.finding(
                self,
                violation.node,
                f"timer handle {violation.handle!r} is armed here but "
                f"{violation.function}() neither stores, cancels, nor "
                "returns it — the armed timer is unreachable and cannot "
                "be disarmed",
            )


@register
class TimerDoubleArmRule(Rule):
    id = "TIM002"
    title = "start() on a handle that may already be pending"
    rationale = (
        "Timer.start() raises TimerError on a pending handle at runtime; "
        "a path that can reach a second start() without an intervening "
        "cancel is a latent crash and usually means reschedule() was "
        "intended (which also preserves the paper's recharge semantics)."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for violation in context.timer_analysis().by_kind("double-arm"):
            yield context.finding(
                self,
                violation.node,
                f"start() on timer handle {violation.handle!r} which may "
                "already be pending on this path — use reschedule() (or "
                "cancel first)",
            )


# ----------------------------------------------------------------------
# TIM006: the engine boundary
# ----------------------------------------------------------------------


@register
class ManualTimerFireRule(Rule):
    id = "TIM006"
    title = "direct call of a timer-expiry internal"
    rationale = (
        "Timer._fire / MraiLimiter._expired / DampingManager._reuse_fired "
        "exist to run as engine events. Calling one synchronously flushes "
        "reuse or MRAI state in the middle of whatever event is currently "
        "executing — the exact cross-timer interleaving the engine's "
        "(time, seq) ordering is there to prevent. Schedule it instead."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in FIRE_INTERNALS:
                yield context.finding(
                    self,
                    call,
                    f"direct call to timer-expiry internal {func.attr}() — "
                    "expiry handlers must run via the engine's event "
                    "boundary (schedule them; never invoke by hand)",
                )


__all__ = [
    "FIRE_INTERNALS",
    "TimerAnalysis",
    "TimerViolation",
    "analyze_timers",
]
