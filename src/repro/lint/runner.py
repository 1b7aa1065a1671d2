"""The lint driver: file discovery, parsing, suppression handling and
the incremental cache.

:func:`lint_paths` is the entry point the CLI and the tier-1 hygiene gate
share; it runs whichever passes (detlint / semlint / timerlint /
perflint) the config enables. Every file goes through one sequence —
parse once into a :class:`~repro.lint.framework.FileContext`, run rules
over it, split the findings by suppression — and :func:`lint_source` is
that sequence over one string. The det/sem/tim passes are *local* (pure
functions of one file). The perf pass is *cross-file*: after the local
rules have run, the per-file call-graph summaries are stitched into a
:class:`~repro.lint.callgraph.ProjectGraph`, the hot set is computed
from it, and the PERF rules run on the contexts the local phase already
built, each dropped as soon as it is done. With ``cache_dir`` set, both
phases consult a content-digest cache (:mod:`repro.lint.cache`); the
findings of a warm run are digest-identical to a cold run by
construction, because cached entries are keyed on exactly the inputs the
analysis reads, and a file whose entries all hit is never parsed.

Suppression comments are construct-scoped and pass-prefixed::

    t = time.time()  # detlint: disable=DET001
    u = time.time()  # detlint: disable=all
    d = self.params.rates  # perflint: disable=PERF003
    x = simulate()  # lint: disable=DET001,SEM003

A pass-scoped prefix (``semlint:`` / ``timerlint:`` / ``perflint:``)
only silences ids of its own pass (``disable=all`` means "all rules of
this pass"); the generic ``lint:`` prefix — and ``detlint:``, which
predates pass scoping and stays fully generic for compatibility —
silences any listed id (``disable=all`` silences everything). A directive
silences a finding when it sits on any physical line of the flagged
construct (so continuation lines of a multi-line call work), or on a
decorator line of the flagged ``def``/``class``. A suppressed finding is
still recorded (reporters show the count) but does not fail the run.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.cache import (
    LintCache,
    config_digest,
    hot_slice_digest,
    rules_signature,
    source_digest,
)
from repro.lint.callgraph import FileSummary, ProjectGraph, summarize
from repro.lint.config import LintConfig, pass_for_rule
from repro.lint.findings import Finding, LintReport
from repro.lint.perf import hot_functions
from repro.lint.rules import FileContext, Rule, all_rule_ids, iter_rules

#: Pass-scoped directive prefixes: ids listed after ``# semlint:`` only
#: silence SEM rules; ``disable=all`` becomes the pass-scoped token
#: ``sem:all``.
_PASS_DIRECTIVES: Dict[str, str] = {
    "semlint:": "sem",
    "timerlint:": "tim",
    "perflint:": "perf",
}
#: Generic prefixes: listed ids silence any pass; ``all`` everything.
#: ``detlint:`` predates the pass-scoped prefixes and has always accepted
#: ids of every catalogue, so it stays an alias of ``lint:`` — existing
#: suppressions keep working.
_GENERIC_DIRECTIVES = ("lint:", "detlint:")

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".pytest_cache"})


def _directive_tokens(text: str, pass_name: Optional[str]) -> Set[str]:
    """Parse one ``disable=...`` payload into suppression tokens."""
    if not text.startswith("disable="):
        return set()
    tokens: Set[str] = set()
    for part in text[len("disable=") :].split(","):
        rule_id = part.strip()
        if not rule_id:
            continue
        if pass_name is None:
            tokens.add(rule_id)
        elif rule_id == "all":
            tokens.add(f"{pass_name}:all")
        elif pass_for_rule(rule_id) == pass_name:
            tokens.add(rule_id)
        # An id of another pass under a pass-scoped prefix is ignored —
        # `# semlint: disable=DET001` must not silence detlint.
    return tokens


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppression tokens active on that line.

    Tokens are rule ids, the pass-scoped ``<pass>:all``, or the global
    ``all``. Comments are found with :mod:`tokenize`, so directive-
    looking text inside string literals is ignored.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            parsed: Set[str] = set()
            for prefix, pass_name in _PASS_DIRECTIVES.items():
                if text.startswith(prefix):
                    parsed = _directive_tokens(
                        text[len(prefix) :].strip(), pass_name
                    )
                    break
            else:
                for prefix in _GENERIC_DIRECTIVES:
                    if text.startswith(prefix):
                        parsed = _directive_tokens(
                            text[len(prefix) :].strip(), None
                        )
                        break
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
    if "all" in disabled or finding.rule_id in disabled:
        return True
    return f"{pass_for_rule(finding.rule_id)}:all" in disabled


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

    source: str = ""
    #: Content digest; empty for an unreadable file (never cached).
    sha: str = ""
    parse_error: Optional[str] = None
    findings: List[Finding] = field(default_factory=list)
    #: Findings a suppression directive covers.
    silenced: List[Finding] = field(default_factory=list)
    summary: Optional[FileSummary] = None
    #: Held from the local phase to the perf phase when both ran fresh,
    #: so the file is parsed once.
    context: Optional[FileContext] = None


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    *,
    cache_dir: Optional[str] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and merge the reports.

    ``cache_dir`` enables the incremental cache (typically
    ``.lint_cache``), a pure accelerator: the merged report is
    digest-identical to an uncached run. A file is parsed at most once
    per run, and not at all when every cache entry it needs hits.
    """
    config = config if config is not None else LintConfig()
    config.validate(all_rule_ids())
    files = list(iter_python_files(paths))
    rules = iter_rules(config)
    local_rules = [rule for rule in rules if pass_for_rule(rule.id) != "perf"]
    perf_rules = [rule for rule in rules if pass_for_rule(rule.id) == "perf"]

    cache: Optional[LintCache] = None
    if cache_dir is not None:
        cache = LintCache(
            cache_dir,
            rules_signature(tuple(sorted(all_rule_ids()))),
            config_digest(config),
        )

    # Phase A — local passes + call-graph summaries.
    states: Dict[str, _FileState] = {}
    for path in files:
        if path in states:
            continue  # named twice on the command line
        state = states[path] = _FileState()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state.source = handle.read()
        except OSError as exc:
            state.parse_error = f"unreadable: {exc}"
            continue
        state.sha = source_digest(state.source)
        cached = cache.local_result(path, state.sha) if cache is not None else None
        if cached is not None:
            state.findings, state.silenced, state.parse_error, summary = cached
            if summary is not None:
                state.summary = FileSummary.from_dict(summary)
            continue
        parsed = _parse(state.source, path, config)
        if isinstance(parsed, str):
            state.parse_error = parsed
        else:
            state.findings, state.silenced = _check(parsed, local_rules)
            if perf_rules:
                state.summary = summarize(parsed)
                state.context = parsed
        if cache is not None:
            cache.store_local(
                path,
                state.sha,
                state.findings,
                state.silenced,
                state.parse_error,
                state.summary.as_dict() if state.summary is not None else None,
            )

    # Phase B — the cross-file perf pass over the project graph.
    if perf_rules:
        project = ProjectGraph(
            state.summary for state in states.values() if state.summary is not None
        )
        hot = hot_functions(project)
        for path, state in states.items():
            if state.parse_error is not None:
                continue
            slice_digest = hot_slice_digest(
                [name for name in hot if project.path_of(name) == path]
            )
            cached_perf = (
                cache.perf_result(path, state.sha, slice_digest)
                if cache is not None
                else None
            )
            if cached_perf is not None:
                found, suppressed = cached_perf
            else:
                context, state.context = state.context, None
                if context is None:
                    # The local phase was a cache hit: this is the
                    # file's one parse of the run.
                    parsed = _parse(state.source, path, config)
                    if isinstance(parsed, str):
                        # Cached by an interpreter that could parse it.
                        state.parse_error = parsed
                        continue
                    context = parsed
                context.project = project
                found, suppressed = _check(context, perf_rules)
                if cache is not None:
                    cache.store_perf(
                        path, state.sha, slice_digest, found, suppressed
                    )
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

    if cache is not None:
        cache.save(keep_paths=files)
        report.cache_stats = {
            "local_hits": cache.local_hits,
            "local_misses": cache.local_misses,
            "perf_hits": cache.perf_hits,
            "perf_misses": cache.perf_misses,
        }
    return report
