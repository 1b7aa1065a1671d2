"""Finding and report types for the static-analysis passes.

A :class:`Finding` pins one rule violation to a ``file:line`` location; a
:class:`LintReport` aggregates the findings of a whole run together with
bookkeeping the reporters and the CI gate need (files checked, findings
silenced by suppression comments, files that failed to parse). Every
active finding blocks: a report is clean only when it has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int = 0
    #: Last physical line of the flagged construct; suppression comments
    #: anywhere in ``line..end_line`` (continuation lines) are honoured.
    end_line: int = 0
    suppressed: bool = False

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (used by the JSON reporter)."""
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "suppressed": self.suppressed,
        }


@dataclass
class LintReport:
    """Aggregated outcome of linting one or more paths."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: ``(path, error message)`` for files that could not be parsed.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the tree is clean: no findings and no parse errors.

        An unparseable file cannot be certified clean, so a parse error
        fails the run just as a finding does.
        """
        return not self.findings and not self.parse_errors

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    def counts_by_rule(self) -> Dict[str, int]:
        """Active finding count per rule id, sorted by rule id."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))
