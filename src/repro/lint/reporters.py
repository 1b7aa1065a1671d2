"""Render a :class:`~repro.lint.findings.LintReport` for humans or tools.

The text reporter is what ``rfd-repro lint`` prints; the JSON reporter
feeds editors and the CI findings artifact. Both are pure functions of
the report so they stay trivially testable.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.findings import LintReport
from repro.lint.rules import iter_rules


def render_text(report: LintReport) -> str:
    """GCC-style ``path:line:col: RULE message`` lines plus a summary."""
    lines: List[str] = []
    for path, error in report.parse_errors:
        lines.append(f"{path}: error: {error}")
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule_id} {finding.message}"
        )
    summary = f"{report.finding_count} finding(s) in {report.files_checked} file(s)"
    if report.suppressed:
        summary += f", {len(report.suppressed)} suppressed"
    if report.parse_errors:
        summary += f", {len(report.parse_errors)} parse error(s)"
    by_rule = report.counts_by_rule()
    if by_rule:
        summary += " [" + ", ".join(f"{k}: {v}" for k, v in by_rule.items()) + "]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable machine-readable rendering of the whole report."""
    payload: Dict[str, object] = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "finding_count": report.finding_count,
        "counts_by_rule": report.counts_by_rule(),
        "findings": [f.as_dict() for f in report.findings],
        "suppressed": [f.as_dict() for f in report.suppressed],
        "parse_errors": [
            {"path": path, "error": error} for path, error in report.parse_errors
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The ``--list-rules`` table: id, title, rationale."""
    lines: List[str] = []
    for rule in iter_rules():
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"        {rule.rationale}")
    return "\n".join(lines)
