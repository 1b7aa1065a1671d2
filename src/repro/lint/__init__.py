"""Static analysis for the reproduction: the det, sem, tim and perf
passes.

The paper's headline effects (secondary charging, muffling, the ``Nh``
crossover) are timer-interaction effects, so the reproduction is only
trustworthy if a fixed seed yields bit-identical runs *and* the RFD/BGP
layers honour their semantic contracts. The runtime contract — the
figure, sweep and scale digests, the timer audit and the converged-state
invariant oracle — checks both on every run; this package catches the
hazards those checks cannot reach before a simulation ever runs:

* **det** (``DET0xx``, :mod:`repro.lint.rules`) — determinism hazards:
  the shared global RNG, re-entrant engine runs from callbacks, process
  fan-out outside the deterministic sweep executor.
* **sem** (``SEM0xx``, :mod:`repro.lint.semantics`) — protocol
  semantics: decision-process purity (via the effect-inference engine
  in :mod:`repro.lint.effects`), timer scheduling through the Engine/
  Timer APIs, metrics-visible RIB mutations, suppression state owned by
  the damping manager.
* **tim** (``TIM0xx``, :mod:`repro.lint.timers`) — timer lifecycle: an
  abstract interpreter over timer handles (leaks, double-arm) and the
  engine boundary (no synchronous call of a timer-expiry internal).
* **perf** (``PERF0xx``, :mod:`repro.lint.perf`) — hot-path performance
  hazards: per-event allocation (closures, containers, f-strings,
  unslotted instances), repeated attribute chains, list-concat growth,
  materialized membership tests, eager logging, constant rebuilding.
  Only functions in the hot set — the cross-file call-graph closure
  (:mod:`repro.lint.callgraph`) of the protocol phase roots and every
  scheduled callback — are checked.

All passes share one rule framework and one per-file analysis product
(:mod:`repro.lint.framework`: each file is parsed and indexed once), a
driver (:mod:`repro.lint.runner`, one run path with no cache) with
construct-scoped ``# lint: disable=...`` suppressions; text/JSON
reporters live in :mod:`repro.lint.reporters`. Every finding blocks.

Run it as ``rfd-repro lint src/``; the tier-1 suite gates the whole tree
through :func:`lint_paths`. The complementary *runtime* checks — the
engine's schedule-race detector, the converged-state invariant oracle,
and the opt-in timer audit — live in :mod:`repro.sim.engine`,
:mod:`repro.analysis.invariants`, and :mod:`repro.sim.timers`; see
``docs/STATIC_ANALYSIS.md`` for the full catalogue.
"""

from repro.lint.callgraph import FileSummary, ProjectGraph, summarize
from repro.lint.config import LintConfig, make_config, pass_for_rule
from repro.lint.effects import EffectAnalysis, FunctionEffects, infer_effects
from repro.lint.findings import Finding, LintReport
from repro.lint.framework import FileContext, Rule, all_rule_ids, iter_rules
from repro.lint.perf import PerfAnalysis, hot_functions
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.rules import RULE_IDS
from repro.lint.runner import lint_paths, lint_source, parse_suppressions
from repro.lint.timers import TimerAnalysis, analyze_timers

__all__ = [
    "EffectAnalysis",
    "FileContext",
    "FileSummary",
    "Finding",
    "FunctionEffects",
    "LintConfig",
    "LintReport",
    "PerfAnalysis",
    "ProjectGraph",
    "RULE_IDS",
    "Rule",
    "TimerAnalysis",
    "all_rule_ids",
    "analyze_timers",
    "hot_functions",
    "infer_effects",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "make_config",
    "parse_suppressions",
    "pass_for_rule",
    "render_json",
    "render_rule_list",
    "render_text",
    "summarize",
]
