"""The lint driver: file discovery, parsing and suppression handling.

:func:`lint_paths` is the entry point the CLI and the tier-1 hygiene gate
share; it runs whichever passes (det / sem / tim / perf) the config
enables. Every file goes through one sequence — parse once into a
:class:`~repro.lint.framework.FileContext`, run rules over it, split the
findings by suppression — and :func:`lint_source` is that sequence over
one string. The det/sem/tim passes are *local* (pure functions of one
file). The perf pass is *cross-file*: after the local rules have run,
the call-graph summaries of the held contexts are stitched into a
:class:`~repro.lint.callgraph.ProjectGraph`, and the PERF rules run on
those same contexts, each dropped as soon as it is done. There is one
run path: no file is read or parsed twice, and nothing is cached
between runs.

Suppression comments are construct-scoped and have one spelling::

    d = self.params.rates  # lint: disable=PERF003
    x = simulate()  # lint: disable=DET002,SEM002
    y = simulate()  # lint: disable=all

A directive silences the listed ids (``all`` silences every rule) when it
sits on any physical line of the flagged construct (so continuation
lines of a multi-line call work), or on a decorator line of the flagged
``def``/``class``. A suppressed finding is still recorded (reporters
show the count) but does not fail the run.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.callgraph import ProjectGraph, summarize
from repro.lint.config import LintConfig, pass_for_rule
from repro.lint.findings import Finding, LintReport
from repro.lint.rules import FileContext, Rule, all_rule_ids, iter_rules

#: The one directive prefix; the ids (or ``all``) follow, comma-separated.
_DIRECTIVE = "lint: disable="

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".pytest_cache"})


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppression tokens active on that line.

    Tokens are rule ids or ``all``. Comments are found with
    :mod:`tokenize`, so directive-looking text inside string literals is
    ignored.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if not text.startswith(_DIRECTIVE):
                continue
            parsed = {
                part.strip()
                for part in text[len(_DIRECTIVE) :].split(",")
                if part.strip()
            }
            if parsed:
                suppressions.setdefault(token.start[0], set()).update(parsed)
    except tokenize.TokenError:
        pass  # the AST parse already succeeded; treat as no suppressions
    return suppressions


def _disabled_rules(finding: Finding, context: FileContext) -> Set[str]:
    """Union of directives covering any line of the flagged construct."""
    lines = list(range(finding.line, finding.end_line + 1))
    lines.extend(context.decorator_lines.get(finding.line, []))
    disabled: Set[str] = set()
    for line in lines:
        disabled |= context.suppressions.get(line, set())
    return disabled


def _is_suppressed(finding: Finding, disabled: Set[str]) -> bool:
    return "all" in disabled or finding.rule_id in disabled


def module_name_for(path: str) -> Optional[str]:
    """Derive a dotted module name from a file path, if the path visibly
    contains the ``repro`` package (e.g. ``src/repro/sim/engine.py`` ->
    ``repro.sim.engine``). Returns None for paths outside the package."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = normalized.split("/")
    if "repro" not in parts:
        return None
    # Rightmost segment: a checkout directory that is itself named
    # ``repro`` (``/home/u/repro/src/repro/...``) must not win.
    start = len(parts) - 1 - parts[::-1].index("repro")
    module_parts = parts[start:]
    module_parts[-1] = module_parts[-1][: -len(".py")] if module_parts[-1].endswith(
        ".py"
    ) else module_parts[-1]
    if module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return ".".join(module_parts)


def _finding_order(finding: Finding) -> Tuple[int, int, str]:
    return (finding.line, finding.col, finding.rule_id)


def _parse(
    source: str,
    path: str,
    config: LintConfig,
    module: Optional[str] = None,
    project: Optional[ProjectGraph] = None,
) -> Union[FileContext, str]:
    """The run's one parse of a file: its context, or the parse-error
    text a report shows instead."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return f"syntax error: {exc.msg} (line {exc.lineno})"
    context = FileContext(
        path=path,
        tree=tree,
        config=config,
        module=module if module is not None else module_name_for(path),
        project=project,
    )
    context.suppressions = parse_suppressions(source)
    return context


def _check(
    context: FileContext, rules: Sequence[Rule]
) -> Tuple[List[Finding], List[Finding]]:
    """Run ``rules`` over one context; returns the sorted findings split
    into ``(active, suppressed)``."""
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(context))
    findings.sort(key=_finding_order)
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        if _is_suppressed(finding, _disabled_rules(finding, context)):
            suppressed.append(replace(finding, suppressed=True))
        else:
            active.append(finding)
    return active, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    project: Optional[ProjectGraph] = None,
) -> LintReport:
    """Lint one source string; the unit of work for files and tests.

    Cross-file rules (the perf pass) see ``project`` when the caller
    linted a whole tree; a lone file gets a single-file project built on
    the fly inside the perf analysis.
    """
    config = config if config is not None else LintConfig()
    report = LintReport(files_checked=1)
    context = _parse(source, path, config, module, project)
    if isinstance(context, str):
        report.parse_errors.append((path, context))
        return report
    findings, suppressed = _check(
        context, rules if rules is not None else iter_rules(config)
    )
    report.findings.extend(findings)
    report.suppressed.extend(suppressed)
    return report


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


@dataclass
class _FileState:
    """What :func:`lint_paths` knows about one file between its phases."""

    parse_error: Optional[str] = None
    findings: List[Finding] = field(default_factory=list)
    #: Findings a suppression directive covers.
    silenced: List[Finding] = field(default_factory=list)
    #: Held from the local phase to the perf phase, so the file is
    #: parsed once.
    context: Optional[FileContext] = None


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintReport:
    """Lint every Python file under ``paths`` and merge the reports.

    Each file is read and parsed exactly once. Phase A runs the local
    passes and keeps the file's context; phase B stitches the contexts'
    call-graph summaries into one project graph and runs the PERF rules
    on the held contexts.
    """
    config = config if config is not None else LintConfig()
    config.validate(all_rule_ids())
    files = list(iter_python_files(paths))
    rules = iter_rules(config)
    local_rules = [rule for rule in rules if pass_for_rule(rule.id) != "perf"]
    perf_rules = [rule for rule in rules if pass_for_rule(rule.id) == "perf"]

    # Phase A — local passes.
    states: Dict[str, _FileState] = {}
    for path in files:
        if path in states:
            continue  # named twice on the command line
        state = states[path] = _FileState()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            state.parse_error = f"unreadable: {exc}"
            continue
        parsed = _parse(source, path, config)
        if isinstance(parsed, str):
            state.parse_error = parsed
            continue
        state.findings, state.silenced = _check(parsed, local_rules)
        if perf_rules:
            state.context = parsed

    # Phase B — the cross-file perf pass over the project graph.
    if perf_rules:
        project = ProjectGraph(
            summarize(state.context)
            for state in states.values()
            if state.context is not None
        )
        for state in states.values():
            context, state.context = state.context, None
            if context is None:
                continue
            context.project = project
            found, suppressed = _check(context, perf_rules)
            state.findings = sorted(state.findings + found, key=_finding_order)
            state.silenced = sorted(
                state.silenced + suppressed, key=_finding_order
            )

    report = LintReport()
    for path in files:
        state = states[path]
        report.files_checked += 1
        if state.parse_error is not None:
            report.parse_errors.append((path, state.parse_error))
            continue
        report.findings.extend(state.findings)
        report.suppressed.extend(state.silenced)
    return report
