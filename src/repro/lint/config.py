"""Configuration for a lint run.

:class:`LintConfig` selects which passes and rules run. The packages
the path-scoped rules apply to are fixed by this repository's layout and
live next to the rules as module constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.errors import ConfigurationError

#: Analysis passes by rule-id prefix; ``--pass all`` selects every one.
KNOWN_PASSES: FrozenSet[str] = frozenset({"det", "sem", "tim", "perf"})

_PASS_PREFIX = re.compile(r"^[A-Z]+")


def pass_for_rule(rule_id: str) -> str:
    """The analysis pass a rule id belongs to (``PERF003`` -> ``perf``)."""
    match = _PASS_PREFIX.match(rule_id)
    return match.group(0).lower() if match else rule_id[:3].lower()


@dataclass(frozen=True)
class LintConfig:
    """Immutable options shared by every rule in one run.

    Parameters
    ----------
    select:
        If non-empty, only these rule ids run.
    ignore:
        Rule ids excluded from the run (applied after ``select``).
    passes:
        Which analysis passes run: ``det`` (determinism), ``sem``
        (protocol semantics), ``tim`` (timer lifecycle), ``perf``
        (hot-path performance), or any combination. A rule belongs to
        the pass its id prefix spells (``DET002`` -> ``det``,
        ``SEM001`` -> ``sem``, ``TIM001`` -> ``tim``, ``PERF004`` ->
        ``perf``).
    """

    select: FrozenSet[str] = frozenset()
    ignore: FrozenSet[str] = frozenset()
    passes: FrozenSet[str] = KNOWN_PASSES

    def validate(self, known_rule_ids: FrozenSet[str]) -> None:
        """Reject rule ids or pass names nothing provides."""
        unknown = (self.select | self.ignore) - known_rule_ids
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule id(s): {', '.join(sorted(unknown))}"
            )
        bad_passes = self.passes - KNOWN_PASSES
        if bad_passes:
            raise ConfigurationError(
                f"unknown lint pass(es): {', '.join(sorted(bad_passes))}"
            )
        if not self.passes:
            raise ConfigurationError("at least one lint pass must be enabled")

    def rule_enabled(self, rule_id: str) -> bool:
        if pass_for_rule(rule_id) not in self.passes:
            return False
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore


def make_config(
    select: Tuple[str, ...] = (),
    ignore: Tuple[str, ...] = (),
    passes: Tuple[str, ...] = ("det", "sem", "tim", "perf"),
) -> LintConfig:
    """Convenience constructor used by the CLI (tuples in, frozensets out).

    ``passes`` accepts the CLI's ``--pass`` vocabulary: ``det``, ``sem``,
    ``tim``, ``perf``, or ``all`` (expanded to every known pass).
    """
    expanded = set()
    for name in passes:
        if name == "all":
            expanded.update(KNOWN_PASSES)
        else:
            expanded.add(name)
    return LintConfig(
        select=frozenset(select),
        ignore=frozenset(ignore),
        passes=frozenset(expanded),
    )
