"""The rule framework shared by the detlint, semlint, timerlint and
perflint passes.

A :class:`Rule` inspects one file through a :class:`FileContext` — the
single per-file analysis product, built once from one ``ast.parse``: the
node list in ``ast.walk`` order, parent links, the import alias map, the
function table, decorator lines, suppression tokens, and the lazily
computed effect, timer-handle and hot-scope analyses that read them —
and yields :class:`~repro.lint.findings.Finding` rows. Rules register
themselves into a global catalogue via :func:`register`; the id prefix
(``DET`` / ``SEM`` / ``TIM`` / ``PERF``) assigns each rule to an
analysis pass. Suppression filtering happens in the runner, not here.

With four passes sharing one registry, a silent id collision would make
a rule unreachable, so :func:`register` validates the id format and
raises at import time when two rule classes claim the same id.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.lint.config import LintConfig
from repro.lint.findings import SEVERITIES, Finding

if TYPE_CHECKING:
    from repro.lint.callgraph import ProjectGraph
    from repro.lint.effects import EffectAnalysis
    from repro.lint.perf import PerfAnalysis
    from repro.lint.timers import TimerAnalysis

_PARENT_ATTR = "_detlint_parent"

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEF_OR_CLASS = _FUNCTION_DEFS + (ast.ClassDef,)


# ----------------------------------------------------------------------
# file context
# ----------------------------------------------------------------------


def walk_list(root: ast.AST) -> List[ast.AST]:
    """``list(ast.walk(root))`` — same breadth-first order — without the
    generator and deque overhead."""
    nodes = [root]
    for node in nodes:  # grows while iterated: breadth-first
        nodes.extend(ast.iter_child_nodes(node))
    return nodes


class FunctionEntry(NamedTuple):
    """One row of a file's function table."""

    #: In-file qualified name (``DampingManager.record_update``).
    qualname: str
    #: The class whose body holds the def; None for module-level
    #: functions and for defs nested inside another def.
    owner_class: Optional[str]
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    #: The def's whole subtree (the def first, closures included) in
    #: ``ast.walk`` order, shared by the effect inference, the call-graph
    #: summary and the timer rules.
    nodes: List[ast.AST]


def enumerate_defs(
    tree: ast.AST,
) -> Tuple[List[FunctionEntry], List[ast.ClassDef]]:
    """Every def with its qualname and owner class, and every class, in
    source order.

    This is the one place that spells the qualname scheme the effect
    inference, the timer-handle interpreter, the PERF scopes and the
    project call graph all key on: class and function names joined with
    dots, no ``<locals>`` marker.
    """
    functions: List[FunctionEntry] = []
    classes: List[ast.ClassDef] = []

    def visit(node: ast.AST, scope: Tuple[str, ...], owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                classes.append(child)
                visit(child, scope + (child.name,), child.name)
            elif isinstance(child, _FUNCTION_DEFS):
                inner = scope + (child.name,)
                functions.append(
                    FunctionEntry(".".join(inner), owner, child, walk_list(child))
                )
                # The owner class no longer applies inside the def.
                visit(child, inner, None)
            elif not isinstance(child, ast.expr):
                # Defs are statements; no expression subtree holds one.
                visit(child, scope, owner)

    visit(tree, (), None)
    return functions, classes


@dataclass
class FileContext:
    """Everything the rules and analyses may look at in one file.

    Built once per file per run; nothing downstream parses or walks the
    whole tree again.
    """

    path: str
    tree: ast.AST
    config: LintConfig
    #: Dotted module name (``repro.sim.engine``) when derivable, else None.
    module: Optional[str] = None
    #: Local name -> fully qualified name, built from import statements.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Cross-file project view (call graph + hot set) when the runner
    #: linted a whole tree; None for single-file invocations, in which
    #: case the perf pass builds a one-file project on the fly.
    project: Optional["ProjectGraph"] = None
    #: Every node of the tree in ``ast.walk`` order. Rules iterate this
    #: instead of re-walking, so finding order matches a fresh walk.
    nodes: List[ast.AST] = field(init=False, repr=False)
    #: The ``ast.Call`` nodes of :attr:`nodes`, same order.
    calls: List[ast.Call] = field(init=False, repr=False)
    #: The function table and the class defs (:func:`enumerate_defs`).
    functions: List[FunctionEntry] = field(init=False, repr=False)
    classes: List[ast.ClassDef] = field(init=False, repr=False)
    #: Qualname -> entry; the last def wins where a name is defined twice
    #: (property getter/setter pairs).
    function_named: Dict[str, FunctionEntry] = field(init=False, repr=False)
    #: A decorated def/class's ``lineno`` -> its decorator lines, so a
    #: directive on ``@decorator`` also covers findings anchored at the
    #: ``def`` line below it.
    decorator_lines: Dict[int, List[int]] = field(init=False, repr=False)
    #: Line -> suppression tokens. The runner, which owns the directive
    #: syntax, attaches them right after the parse; a context built from
    #: a bare tree has none.
    suppressions: Dict[int, Set[str]] = field(
        init=False, repr=False, default_factory=dict
    )
    _effects: Optional["EffectAnalysis"] = field(default=None, repr=False)
    _timers: Optional["TimerAnalysis"] = field(default=None, repr=False)
    _perf: Optional["PerfAnalysis"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._index_nodes()
        self.functions, self.classes = enumerate_defs(self.tree)
        self.function_named = {entry.qualname: entry for entry in self.functions}

    def _index_nodes(self) -> None:
        """The one whole-tree traversal: node list, parent links, import
        aliases, call sites and decorator lines."""
        nodes: List[ast.AST] = [self.tree]
        calls: List[ast.Call] = []
        aliases = self.aliases
        decorator_lines: Dict[int, List[int]] = {}
        self.nodes, self.calls, self.decorator_lines = nodes, calls, decorator_lines
        for node in nodes:  # grows while iterated: breadth-first
            for child in ast.iter_child_nodes(node):
                setattr(child, _PARENT_ATTR, node)
                nodes.append(child)
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and not node.level:
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
            elif isinstance(node, _DEF_OR_CLASS):
                if node.decorator_list:
                    decorator_lines[node.lineno] = [
                        line
                        for decorator in node.decorator_list
                        for line in range(
                            decorator.lineno,
                            (decorator.end_lineno or decorator.lineno) + 1,
                        )
                    ]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, _PARENT_ATTR, None)

    def effect_analysis(self) -> "EffectAnalysis":
        """Per-function effect classification of this file, computed on
        first use and shared by every rule that needs it."""
        if self._effects is None:
            # Local import (here and below): the analysis modules import
            # this one for FileContext/Rule, so a top-level import would
            # be circular.
            from repro.lint.effects import infer_effects

            self._effects = infer_effects(self.functions)
        return self._effects

    def timer_analysis(self) -> "TimerAnalysis":
        """Timer-handle abstract interpretation of this file, computed on
        first use and shared by the TIM rules."""
        if self._timers is None:
            from repro.lint.timers import analyze_timers

            self._timers = analyze_timers(self)
        return self._timers

    def perf_analysis(self) -> "PerfAnalysis":
        """Hot-set-annotated function scopes of this file, computed on
        first use and shared by the PERF001..PERF010 rules."""
        if self._perf is None:
            from repro.lint.perf import PerfAnalysis

            self._perf = PerfAnalysis(self)
        return self._perf

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a ``Name``/``Attribute`` chain to a dotted name, expanding
        the leading segment through the file's import aliases."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        end_line = getattr(node, "end_lineno", None) or line
        # A finding anchored to a whole def/class must not let directives
        # deep inside the body silence it; cap the suppression window at
        # the statement header (decorator lines are handled separately by
        # the runner).
        if isinstance(node, _DEF_OR_CLASS):
            if node.body:
                end_line = max(line, node.body[0].lineno - 1)
        return Finding(
            rule_id=rule.id,
            message=message,
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            end_line=end_line,
            severity=severity if severity is not None else rule.severity,
        )


# ----------------------------------------------------------------------
# rule framework
# ----------------------------------------------------------------------


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`, a
    generator over findings for one file. Registration happens through
    the :func:`register` decorator so the catalogue is the single source
    of truth for ``--list-rules`` and the documentation gate.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: ``error`` (default) or ``warning``; drives the ``--fail-on`` gate.
    severity: str = "error"

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}

#: Pass prefix (three or four letters) + three-digit ordinal, e.g.
#: ``TIM004`` or ``PERF002``.
_RULE_ID_FORMAT = re.compile(r"^[A-Z]{3,4}\d{3}$")


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global catalogue.

    Raises :class:`ValueError` at import time for a missing or malformed
    id, an unknown severity, or an id another rule class already claimed
    (within or across passes) — a collision would silently shadow one of
    the two rules in ``--select``/``--ignore`` and the documentation gate.
    """
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if not _RULE_ID_FORMAT.match(rule_class.id):
        raise ValueError(
            f"rule {rule_class.__name__} id {rule_class.id!r} does not match "
            "the PREFIXnnn format (e.g. DET001, SEM003, TIM010, PERF004)"
        )
    if rule_class.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule_class.__name__} severity {rule_class.severity!r} "
            f"is not one of {SEVERITIES}"
        )
    existing = _REGISTRY.get(rule_class.id)
    if existing is not None:
        raise ValueError(
            f"duplicate rule id {rule_class.id}: {rule_class.__name__} "
            f"collides with already-registered {existing.__name__}"
        )
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def registry() -> Dict[str, Type[Rule]]:
    """The live rule catalogue (id -> class), for introspection."""
    return dict(_REGISTRY)


def all_rule_ids() -> FrozenSet[str]:
    return frozenset(_REGISTRY)


def iter_rules(config: Optional[LintConfig] = None) -> List[Rule]:
    """Instantiate the enabled rules, sorted by id."""
    rules: List[Rule] = []
    for rule_id in sorted(_REGISTRY):
        if config is None or config.rule_enabled(rule_id):
            rules.append(_REGISTRY[rule_id]())
    return rules


def iter_calls(context: FileContext) -> Iterator[ast.Call]:
    """All call expressions of the file, in tree order."""
    return iter(context.calls)
