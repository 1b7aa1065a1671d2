"""timerlint: timer-lifecycle and timer-interaction rules (TIM001..TIM010).

The paper's subject is what happens when damping's reuse/decay timers
interact with MRAI hold-offs, so the code arming those timers has to obey
a strict lifecycle and unit discipline. This pass enforces it statically:

``TIM001``  armed timer handle that never escapes and is never cancelled
``TIM002``  ``start()`` on a possibly-pending handle (double-arm)
``TIM003``  ``start()`` on a cancelled handle (re-arm after cancel)
``TIM004``  scheduled callback mutates damping state off the charge API
``TIM005``  raw numeric delay literal at an arming call site
``TIM006``  direct call of a timer-expiry internal (engine-boundary bypass)
``TIM007``  ``Timer`` constructed without ``actor``/``tag`` race labels
``TIM008``  arming delay computed by unclamped subtraction
``TIM009``  timer state compared to a string instead of ``TimerState``
``TIM010``  timer armed inside ``__init__`` (arming during construction)

TIM001..TIM003 come from a small abstract interpreter over timer handles
(:func:`analyze_timers`): each function body is executed abstractly,
tracking for every local ``Timer`` handle the set of lifecycle states it
may be in (idle / pending / fired / cancelled), joining at branches and
iterating loop bodies. The interpreter leans on the call-graph effect
inference (:mod:`repro.lint.effects`): a handle passed to an intra-file
helper whose transitive effects include ``cancels-timer`` (and not
``schedules-timer``) is treated as cancelled rather than escaped, so the
blessed "helper disarms it for me" idiom stays clean while a genuinely
dropped armed handle is flagged. TIM004 likewise propagates
"mutates damping state" transitively over the same call graph before
judging a scheduled callback.

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

from repro.lint.effects import (
    CANCELS_TIMER,
    ENGINE_RECEIVERS,
    SCHEDULES_TIMER,
    EffectAnalysis,
)
from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, iter_calls, register, walk_list

#: Timer methods that (re)arm the underlying event.
ARMING_METHODS: FrozenSet[str] = frozenset(
    {"start", "reschedule", "restart_if_idle"}
)

#: Timer-expiry internals that must only ever run as engine callbacks —
#: calling them synchronously flushes reuse/MRAI state outside the event
#: boundary (the paper's cross-timer hazard, in code form).
FIRE_INTERNALS: FrozenSet[str] = frozenset({"_fire", "_expired", "_reuse_fired"})

#: The abstract lifecycle lattice (mirrors repro.sim.timers.TimerState).
_ALL_STATES: FrozenSet[str] = frozenset({"idle", "pending", "fired", "cancelled"})

#: Attribute names whose mutation is "damping state" for TIM004.
_DAMPING_ATTRS: FrozenSet[str] = frozenset({"penalty", "suppressed"})

#: PenaltyState mutators (the charge API's own internals).
_PENALTY_MUTATORS: FrozenSet[str] = frozenset({"charge", "touch"})


def _is_timer_ctor(context: FileContext, call: ast.Call) -> bool:
    qualified = context.qualified_name(call.func)
    return qualified is not None and qualified.split(".")[-1] == "Timer"


def _receiver_last_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _timer_local_names(context: FileContext) -> FrozenSet[str]:
    """Every local name the file ever binds to a ``Timer(...)`` result —
    the receiver vocabulary for the syntactic arming-site rules."""
    names: Set[str] = set()
    for node in context.nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_timer_ctor(context, node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return frozenset(names)


def _is_timerish_receiver(
    receiver: ast.expr, timer_names: FrozenSet[str]
) -> bool:
    name = _receiver_last_name(receiver)
    if name is None:
        return False
    return "timer" in name.lower() or name in timer_names


def _delay_argument(call: ast.Call) -> Optional[ast.expr]:
    """The delay operand of an arming call (first positional or
    ``delay=``)."""
    if call.args:
        first = call.args[0]
        if not isinstance(first, ast.Starred):
            return first
        return None
    for keyword in call.keywords:
        if keyword.arg == "delay":
            return keyword.value
    return None


def _arming_delay_site(
    context: FileContext, call: ast.Call, timer_names: FrozenSet[str]
) -> Optional[ast.expr]:
    """The delay expression when ``call`` is a relative arming site:
    a Timer arming method, ``engine.schedule``, or ``call_soon``.
    ``schedule_at`` takes an absolute instant and is out of scope."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "call_soon" and len(call.args) >= 1:
            # call_soon(engine, cb) has no delay operand at all.
            return None
        return None
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    if method in {"reschedule", "restart_if_idle"}:
        return _delay_argument(call)
    if method == "start" and _is_timerish_receiver(func.value, timer_names):
        return _delay_argument(call)
    if method == "schedule":
        receiver = _receiver_last_name(func.value)
        if receiver in ENGINE_RECEIVERS:
            return _delay_argument(call)
    return None


def _numeric_constant(node: ast.expr) -> Optional[float]:
    """The numeric value of a literal (including unary minus), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _numeric_constant(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


# ----------------------------------------------------------------------
# the abstract interpreter behind TIM001..TIM003
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimerViolation:
    """One lifecycle hazard found by the abstract interpreter."""

    kind: str  # "leak" | "double-arm" | "rearm-after-cancel"
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
            elif state.states == {"cancelled"}:
                self._violate("rearm-after-cancel", call, name)
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
    """Lifecycle hazards of every function in one file, plus the file's
    timer-handle vocabulary."""

    def __init__(
        self, violations: List[TimerViolation], timer_names: FrozenSet[str]
    ) -> None:
        self.violations = violations
        #: Local names the file binds to ``Timer(...)`` results.
        self.timer_names = timer_names

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
    return TimerAnalysis(violations, _timer_local_names(context))


# ----------------------------------------------------------------------
# TIM001..TIM003: interpreter-backed lifecycle rules
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


@register
class TimerRearmAfterCancelRule(Rule):
    id = "TIM003"
    title = "start() on a handle cancelled earlier on the same path"
    severity = "warning"
    rationale = (
        "cancel() followed by start() on the same handle silently resets "
        "the lifecycle history the audit and race detector rely on; "
        "reschedule() arms from any state and says what it means, or use "
        "a fresh Timer if the old arming truly is unrelated."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for violation in context.timer_analysis().by_kind("rearm-after-cancel"):
            yield context.finding(
                self,
                violation.node,
                f"timer handle {violation.handle!r} was cancelled on this "
                "path and is armed again with start() — prefer "
                "reschedule(), which arms from any state explicitly",
            )


# ----------------------------------------------------------------------
# TIM004: scheduled callbacks must go through the charge API
# ----------------------------------------------------------------------


def _mutates_damping_directly(nodes: Sequence[ast.AST]) -> bool:
    for sub in nodes:
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _DAMPING_ATTRS
                ):
                    return True
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            receiver = _receiver_last_name(sub.func.value)
            if (
                sub.func.attr in _PENALTY_MUTATORS
                and receiver is not None
                and "penalty" in receiver.lower()
            ):
                return True
    return False


def _damping_mutators(context: FileContext) -> FrozenSet[str]:
    """Qualnames of functions that (transitively) mutate damping state."""
    effects = context.effect_analysis()
    mutators: Set[str] = {
        qualname
        for qualname, entry in context.function_named.items()
        if _mutates_damping_directly(entry.nodes)
    }
    changed = True
    while changed:
        changed = False
        for record in effects.iter_functions():
            if record.qualname in mutators:
                continue
            if any(callee in mutators for callee in record.calls):
                mutators.add(record.qualname)
                changed = True
    return frozenset(mutators)


def _enclosing_class_name(context: FileContext, node: ast.AST) -> Optional[str]:
    current: Optional[ast.AST] = node
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current.name
        current = context.parent(current)
    return None


def _callback_argument(
    context: FileContext, call: ast.Call
) -> Optional[ast.expr]:
    """The callback operand of a callback-registering call site."""
    func = call.func
    if _is_timer_ctor(context, call):
        if len(call.args) >= 2:
            return call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "callback":
                return keyword.value
        return None
    if isinstance(func, ast.Name) and func.id == "call_soon":
        return call.args[1] if len(call.args) >= 2 else None
    if isinstance(func, ast.Attribute) and func.attr in {
        "schedule",
        "schedule_at",
    }:
        receiver = _receiver_last_name(func.value)
        if receiver in ENGINE_RECEIVERS:
            if len(call.args) >= 2:
                return call.args[1]
            for keyword in call.keywords:
                if keyword.arg == "callback":
                    return keyword.value
    return None


@register
class CallbackDampingMutationRule(Rule):
    id = "TIM004"
    title = "scheduled callback mutates damping state off the charge API"
    rationale = (
        "A timer callback that pokes .penalty/.suppressed (or calls the "
        "PenaltyState mutators) directly bypasses DampingManager's "
        "bookkeeping: no suppression record, no reuse timer, no trace "
        "causality. Only the damping module itself may do this; everyone "
        "else goes through record_update()."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.config.is_damping_module(context.module):
            return
        mutators = _damping_mutators(context)

        def resolves_to_mutator(expr: ast.expr, site: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Call):
                qualified = context.qualified_name(expr.func)
                if qualified is not None and qualified.split(".")[-1] == "partial":
                    if expr.args:
                        return resolves_to_mutator(expr.args[0], site)
                return None
            if isinstance(expr, ast.Lambda):
                body = walk_list(expr.body)
                if _mutates_damping_directly(body):
                    return "<lambda>"
                for sub in body:
                    if isinstance(sub, ast.Call):
                        inner = resolves_to_mutator(sub.func, site)
                        if inner is not None:
                            return inner
                return None
            if isinstance(expr, ast.Name):
                return expr.id if expr.id in mutators else None
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                owner = _enclosing_class_name(context, site)
                if owner is not None:
                    qualname = f"{owner}.{expr.attr}"
                    return qualname if qualname in mutators else None
            return None

        for call in iter_calls(context):
            callback = _callback_argument(context, call)
            if callback is None:
                continue
            culprit = resolves_to_mutator(callback, call)
            if culprit is not None:
                yield context.finding(
                    self,
                    call,
                    f"scheduled callback {culprit}() mutates damping state "
                    "directly — route penalty/suppression changes through "
                    "DampingManager.record_update() (the charge API)",
                )


# ----------------------------------------------------------------------
# TIM005..TIM010: syntactic discipline at arming/construction sites
# ----------------------------------------------------------------------


@register
class RawDelayLiteralRule(Rule):
    id = "TIM005"
    title = "raw numeric delay literal at an arming call site"
    rationale = (
        "A bare 30.0 at an arming site says nothing about units (seconds "
        "vs. half-lives vs. ticks) and drifts apart from the parameter it "
        "duplicates. Name the interval (module constant or params field); "
        "zero is exempt — it is the call_soon idiom, not an interval."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        timer_names = context.timer_analysis().timer_names
        for call in iter_calls(context):
            delay = _arming_delay_site(context, call, timer_names)
            if delay is None:
                continue
            value = _numeric_constant(delay)
            if value is not None and value != 0.0:
                yield context.finding(
                    self,
                    delay,
                    f"raw delay literal {value!r} at an arming call — name "
                    "the interval (a module constant or a params field) so "
                    "its unit is auditable",
                )


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


@register
class UnlabeledTimerRule(Rule):
    id = "TIM007"
    title = "Timer constructed without actor/tag race labels"
    severity = "warning"
    rationale = (
        "The schedule-race detector can only see ties between events that "
        "carry an actor label, and the trace tooling groups by tag. An "
        "unlabeled Timer is invisible to both — every production timer "
        "names its owning router and its kind ('mrai', 'reuse', ...)."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context):
            if not _is_timer_ctor(context, call):
                continue
            keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
            missing = [kw for kw in ("actor", "tag") if kw not in keywords]
            if missing:
                yield context.finding(
                    self,
                    call,
                    "Timer constructed without "
                    + " and ".join(f"{kw}=" for kw in missing)
                    + " — unlabeled timers are invisible to the "
                    "schedule-race detector",
                )


@register
class UnclampedDelaySubtractionRule(Rule):
    id = "TIM008"
    title = "arming delay computed by unclamped subtraction"
    rationale = (
        "start(deadline - now) goes negative the moment the deadline has "
        "passed and raises TimerError deep inside an event callback. "
        "Clamp with max(0.0, ...) or schedule the absolute instant with "
        "schedule_at()."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        timer_names = context.timer_analysis().timer_names
        for call in iter_calls(context):
            delay = _arming_delay_site(context, call, timer_names)
            if (
                delay is not None
                and isinstance(delay, ast.BinOp)
                and isinstance(delay.op, ast.Sub)
            ):
                yield context.finding(
                    self,
                    delay,
                    "arming delay computed by bare subtraction — a past "
                    "deadline makes it negative and raises TimerError; "
                    "clamp with max(0.0, ...) or use schedule_at()",
                )


@register
class TimerStateStringCompareRule(Rule):
    id = "TIM009"
    title = "timer state compared to a string literal"
    rationale = (
        "Timer.state is a TimerState enum; comparing it to 'pending' is "
        "always False and silently disables whatever guard it was meant "
        "to be. Compare against TimerState members or use .is_pending."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        timer_names = context.timer_analysis().timer_names
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            has_state = any(
                isinstance(op, ast.Attribute)
                and op.attr == "state"
                and _is_timerish_receiver(op.value, timer_names)
                for op in operands
            )
            has_string = any(
                isinstance(op, ast.Constant) and isinstance(op.value, str)
                for op in operands
            )
            if has_state and has_string:
                yield context.finding(
                    self,
                    node,
                    "timer state compared to a string literal — TimerState "
                    "is an enum, so this comparison is always False; use "
                    "TimerState members or .is_pending",
                )


@register
class ArmInConstructorRule(Rule):
    id = "TIM010"
    title = "timer armed inside __init__"
    severity = "warning"
    rationale = (
        "Arming during construction schedules work before the owner is "
        "fully built and observable (race labels, observers, snapshots "
        "assume quiescent construction — warm-state pickling relies on "
        "it). Construct idle; arm from an explicit event or bring-up call."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        timer_names = context.timer_analysis().timer_names
        for entry in context.functions:
            node = entry.node
            if not isinstance(node, ast.FunctionDef) or node.name != "__init__":
                continue
            for sub in entry.nodes:
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                arming = False
                if isinstance(func, ast.Name) and func.id == "call_soon":
                    arming = True
                elif isinstance(func, ast.Attribute):
                    method = func.attr
                    if method in {"reschedule", "restart_if_idle"}:
                        arming = True
                    elif method == "start" and _is_timerish_receiver(
                        func.value, timer_names
                    ):
                        arming = True
                    elif method in {"schedule", "schedule_at"}:
                        arming = (
                            _receiver_last_name(func.value) in ENGINE_RECEIVERS
                        )
                if arming:
                    yield context.finding(
                        self,
                        sub,
                        "timer armed inside __init__ — construct idle and "
                        "arm from an explicit event/bring-up call so "
                        "snapshots and race labels see a quiescent object",
                    )


__all__ = [
    "ARMING_METHODS",
    "FIRE_INTERNALS",
    "TimerAnalysis",
    "TimerViolation",
    "analyze_timers",
]
