"""Cross-file call graph for the perflint hot set and the incremental
cache's transitive invalidation.

The intra-file effect inference in :mod:`repro.lint.effects` stops at
file boundaries; perflint needs to know whether a function is reachable
from a *phase root* or an *engine callback registration* anywhere in
the project. :func:`summarize` distils one file's context into a
JSON-round-trippable :class:`FileSummary` (functions, call tokens,
callback registrations); :class:`ProjectGraph` stitches the summaries
together, resolving edges through

- ``self.x()`` calls to methods of the enclosing class,
- bare-name calls to module-level functions, then through the file's
  import aliases to other modules,
- dotted calls whose leading name is an import alias
  (``decision.select_best`` -> ``repro.bgp.decision.select_best``), and
- attribute calls on conventionally named receivers
  (``engine.schedule`` -> ``Engine.schedule``) via
  :data:`RECEIVER_CLASS_HINTS`.

Resolution is deliberately sound-ish rather than complete — an
unresolvable callee is simply absent from the graph, which errs toward
*smaller* hot sets (findings downgrade to info, never spuriously
upgrade to warning).

Because summaries round-trip through JSON, the incremental cache stores
them per file keyed by source digest: a warm run rebuilds the whole
project graph without re-parsing a single unchanged file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.framework import FileContext

#: Receiver spellings that conventionally denote instances of a class in
#: this codebase, letting ``receiver.method()`` calls resolve to that
#: class's method without type inference. Keys are the *last* name
#: segment of the receiver expression (``self._engine`` -> ``engine`` is
#: handled by stripping a leading underscore).
RECEIVER_CLASS_HINTS: Dict[str, str] = {
    "engine": "Engine",
    "timer": "Timer",
    "reuse_timer": "Timer",
    "mrai_timer": "Timer",
    "damping": "DampingManager",
    "manager": "DampingManager",
    "params": "DampingParams",
    "penalty": "PenaltyState",
    "router": "BgpRouter",
    "rib": "LocRib",
    "loc_rib": "LocRib",
    "adj_rib_in": "AdjRibIn",
    "adj_rib_out": "AdjRibOut",
    "mrai": "MraiLimiter",
    "limiter": "MraiLimiter",
    "link": "Link",
}

#: Methods whose callable arguments are scheduled for later execution on
#: the engine hot path (mirrors ``effects._SCHEDULING_METHODS`` plus the
#: Timer constructor, which takes ``callback=``).
_CALLBACK_SINKS: FrozenSet[str] = frozenset(
    {"schedule", "schedule_at", "call_soon", "reschedule", "restart_if_idle", "start"}
)
_CALLBACK_CONSTRUCTORS: FrozenSet[str] = frozenset({"Timer"})


@dataclass(frozen=True)
class FunctionInfo:
    """One function of one file, as seen by the project graph."""

    #: In-file qualified name (``DampingManager.record_update``).
    qualname: str
    line: int
    owner_class: Optional[str]
    #: Call tokens ``(kind, payload)`` with kind one of ``self`` (method
    #: name), ``bare`` (unqualified name), ``qual`` (alias-expanded
    #: dotted name), ``attr`` (``receiver.method``).
    callees: Tuple[Tuple[str, str], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "owner_class": self.owner_class,
            "callees": [list(token) for token in self.callees],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "FunctionInfo":
        callees = tuple(
            (str(kind), str(payload))
            for kind, payload in data.get("callees", [])  # type: ignore[union-attr]
        )
        owner = data.get("owner_class")
        return FunctionInfo(
            qualname=str(data["qualname"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            owner_class=str(owner) if owner is not None else None,
            callees=callees,
        )


@dataclass(frozen=True)
class FileSummary:
    """The call-graph-relevant distillation of one source file."""

    path: str
    module: Optional[str]
    functions: Tuple[FunctionInfo, ...]
    #: ``(registering_function_qualname, kind, payload)`` for every
    #: callable handed to a scheduling sink; kinds as in FunctionInfo.
    callback_targets: Tuple[Tuple[str, str, str], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "module": self.module,
            "functions": [info.as_dict() for info in self.functions],
            "callback_targets": [list(entry) for entry in self.callback_targets],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "FileSummary":
        module = data.get("module")
        return FileSummary(
            path=str(data["path"]),
            module=str(module) if module is not None else None,
            functions=tuple(
                FunctionInfo.from_dict(entry)
                for entry in data.get("functions", [])  # type: ignore[union-attr]
            ),
            callback_targets=tuple(
                (str(a), str(b), str(c))
                for a, b, c in data.get("callback_targets", [])  # type: ignore[union-attr]
            ),
        )


def _receiver_token(node: ast.expr) -> Optional[str]:
    """Last, underscore-stripped name segment of a receiver expression."""
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return None
    return name.lstrip("_") or name


def _dotted_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]`` when rooted at a plain Name."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return parts


def _call_token(
    func: ast.expr, aliases: Mapping[str, str]
) -> Optional[Tuple[str, str]]:
    """Classify one call expression into a resolvable token."""
    if isinstance(func, ast.Name):
        expanded = aliases.get(func.id)
        if expanded is not None:
            return ("qual", expanded)
        return ("bare", func.id)
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id == "self":
        return ("self", func.attr)
    chain = _dotted_chain(func)
    if chain is not None and chain[0] in aliases:
        return ("qual", ".".join([aliases[chain[0]]] + chain[1:]))
    receiver = _receiver_token(func.value)
    if receiver is not None:
        return ("attr", f"{receiver}.{func.attr}")
    return None


def _callback_token(
    expr: ast.expr, aliases: Mapping[str, str]
) -> Optional[Tuple[str, str]]:
    """Token for a callable handed to a scheduling sink.

    Unwraps ``functools.partial(callable, ...)`` to its first argument so
    ``partial(self._reuse_fired, peer, prefix)`` resolves to the method.
    """
    if isinstance(expr, ast.Call):
        fname: Optional[str] = None
        if isinstance(expr.func, ast.Name):
            fname = expr.func.id
        elif isinstance(expr.func, ast.Attribute):
            fname = expr.func.attr
        if fname == "partial" and expr.args:
            return _callback_token(expr.args[0], aliases)
        return None
    return _call_token(expr, aliases)


def _is_callback_sink(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _CALLBACK_CONSTRUCTORS or func.id == "call_soon"
    if isinstance(func, ast.Attribute):
        return func.attr in _CALLBACK_SINKS
    return False


def _callback_tokens(
    call: ast.Call, aliases: Mapping[str, str]
) -> Iterable[Tuple[str, str]]:
    """Tokens for every callable ``call`` hands to a scheduling sink."""
    if _is_callback_sink(call):
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            token = _callback_token(arg, aliases)
            if token is not None:
                yield token


def summarize_file(
    tree: ast.AST, path: str, module: Optional[str] = None
) -> FileSummary:
    """Distil one parsed file into its :class:`FileSummary` (the
    bare-tree entry point; the runner summarizes the context it already
    holds with :func:`summarize`)."""
    return summarize(
        FileContext(path=path, tree=tree, config=LintConfig(), module=module)
    )


def summarize(context: FileContext) -> FileSummary:
    """Distil one file's context into its :class:`FileSummary`."""
    aliases = context.aliases
    functions: List[FunctionInfo] = []
    callbacks: List[Tuple[str, str, str]] = []
    for entry in context.functions:
        callees: Set[Tuple[str, str]] = set()
        for sub in entry.nodes:
            if not isinstance(sub, ast.Call):
                continue
            token = _call_token(sub.func, aliases)
            if token is not None:
                callees.add(token)
            for kind, payload in _callback_tokens(sub, aliases):
                callbacks.append((entry.qualname, kind, payload))
        functions.append(
            FunctionInfo(
                qualname=entry.qualname,
                line=entry.node.lineno,
                owner_class=entry.owner_class,
                callees=tuple(sorted(callees)),
            )
        )
    # Module-level callback registrations (scripts, fixtures).
    for stmt in getattr(context.tree, "body", []):
        for sub in ast.walk(stmt):
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                break
            if isinstance(sub, ast.Call):
                for kind, payload in _callback_tokens(sub, aliases):
                    callbacks.append(("<module>", kind, payload))
    return FileSummary(
        path=context.path,
        module=context.module,
        functions=tuple(sorted(functions, key=lambda f: f.qualname)),
        callback_targets=tuple(sorted(set(callbacks))),
    )


class ProjectGraph:
    """All file summaries stitched into one resolvable call graph.

    Functions are keyed by their *full* dotted name — the module name
    (or, for files outside the package, the file path) joined with the
    in-file qualified name.
    """

    def __init__(self, summaries: Iterable[FileSummary]) -> None:
        self._summaries: List[FileSummary] = sorted(
            summaries, key=lambda s: s.path
        )
        self._functions: Dict[str, FunctionInfo] = {}
        self._path_of: Dict[str, str] = {}
        self._module_level: Dict[str, Dict[str, str]] = {}
        self._by_class: Dict[Tuple[str, str], Dict[str, str]] = {}
        self._class_index: Dict[str, List[Tuple[str, str]]] = {}
        for summary in self._summaries:
            ns = self._namespace(summary)
            for info in summary.functions:
                full = f"{ns}.{info.qualname}"
                self._functions[full] = info
                self._path_of[full] = summary.path
                if "." not in info.qualname:
                    self._module_level.setdefault(ns, {})[info.qualname] = full
                if info.owner_class is not None:
                    key = (ns, info.owner_class)
                    method = info.qualname.rsplit(".", 1)[-1]
                    self._by_class.setdefault(key, {})[method] = full
                    index = self._class_index.setdefault(info.owner_class, [])
                    if key not in index:
                        index.append(key)
        self._edges: Dict[str, Tuple[str, ...]] = {}
        for summary in self._summaries:
            ns = self._namespace(summary)
            for info in summary.functions:
                full = f"{ns}.{info.qualname}"
                targets: Set[str] = set()
                for kind, payload in info.callees:
                    resolved = self._resolve(ns, info, kind, payload)
                    targets.update(resolved)
                targets.discard(full)
                self._edges[full] = tuple(sorted(targets))
        roots: Set[str] = set()
        for summary in self._summaries:
            ns = self._namespace(summary)
            owners = {
                info.qualname: info.owner_class for info in summary.functions
            }
            for registrar, kind, payload in summary.callback_targets:
                info = FunctionInfo(
                    qualname=registrar,
                    line=0,
                    owner_class=owners.get(registrar),
                    callees=(),
                )
                roots.update(self._resolve(ns, info, kind, payload))
        self._callback_roots: FrozenSet[str] = frozenset(roots)

    @staticmethod
    def _namespace(summary: FileSummary) -> str:
        return summary.module if summary.module is not None else summary.path

    def _resolve(
        self, ns: str, info: FunctionInfo, kind: str, payload: str
    ) -> Set[str]:
        resolved: Set[str] = set()
        if kind == "self" and info.owner_class is not None:
            full = self._by_class.get((ns, info.owner_class), {}).get(payload)
            if full is not None:
                resolved.add(full)
        elif kind == "bare":
            nested = f"{ns}.{info.qualname}.{payload}"
            if nested in self._functions:
                resolved.add(nested)
            else:
                full = self._module_level.get(ns, {}).get(payload)
                if full is not None:
                    resolved.add(full)
        elif kind == "qual":
            if payload in self._functions:
                resolved.add(payload)
            else:
                # ``repro.core.damping.DampingManager`` (a class import)
                # called as a constructor: resolve to its __init__.
                init = f"{payload}.__init__"
                head, _, tail = payload.rpartition(".")
                if init in self._functions:
                    resolved.add(init)
                elif head and tail in self._class_index:
                    for cls_ns, cls in self._class_index[tail]:
                        if cls_ns == head:
                            ctor = self._by_class[(cls_ns, cls)].get("__init__")
                            if ctor is not None:
                                resolved.add(ctor)
        elif kind == "attr":
            receiver, _, method = payload.partition(".")
            hint = RECEIVER_CLASS_HINTS.get(receiver)
            if hint is not None:
                for key in self._class_index.get(hint, []):
                    full = self._by_class[key].get(method)
                    if full is not None:
                        resolved.add(full)
        return resolved

    @property
    def callback_roots(self) -> FrozenSet[str]:
        """Functions registered (anywhere) as engine/timer callbacks."""
        return self._callback_roots

    def has_function(self, full_name: str) -> bool:
        return full_name in self._functions

    def path_of(self, full_name: str) -> Optional[str]:
        return self._path_of.get(full_name)

    def functions_in(self, path: str) -> List[str]:
        """Full names of every function defined in ``path``, sorted."""
        return sorted(
            full for full, p in self._path_of.items() if p == path
        )

    def closure(self, roots: Iterable[str]) -> FrozenSet[str]:
        """Transitive callee closure of ``roots`` over resolved edges."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self._functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                callee
                for callee in self._edges.get(current, ())
                if callee not in seen
            )
        return frozenset(seen)


__all__ = [
    "RECEIVER_CLASS_HINTS",
    "FileSummary",
    "FunctionInfo",
    "ProjectGraph",
    "summarize",
    "summarize_file",
]
