"""Unit tests for the perflint (PERF0xx) catalogue and its hot-set model.

Every rule gets a seeded fixture that must fire and compliant code that
must stay silent; the rule fixtures are linted with every function hot,
so they exercise the rule logic apart from the hot-set model. The hot
set itself is exercised both ways: a hazard inside it (phase roots,
callback registrations, their transitive callees) is reported, the same
hazard outside it is not checked. :func:`~repro.lint.perf.hot_functions`
is tested directly as a pure function of the source tree.
"""

from __future__ import annotations

import ast
import dataclasses
import textwrap

import pytest

from repro.lint import (
    FileContext,
    LintConfig,
    ProjectGraph,
    hot_functions,
    lint_source,
    make_config,
    summarize,
)
from repro.lint.perf import PERF_RULE_IDS


def perf_config():
    return make_config(passes=("perf",))


def summarize_of(tree, path, module):
    context = FileContext(path=path, tree=tree, config=LintConfig(), module=module)
    return summarize(context)


def all_hot_project(source: str, module: str) -> ProjectGraph:
    """A one-file project in which every function of ``source`` is
    registered as an engine callback, so every one of them is hot."""
    summary = summarize_of(ast.parse(source), "fixture.py", module)
    callbacks = tuple(
        ("<module>", "qual", f"{module}.{info.qualname}")
        for info in summary.functions
    )
    return ProjectGraph(
        [dataclasses.replace(summary, callback_targets=callbacks)]
    )


def perf_findings(source: str, module: str = "repro.sample.fixture"):
    source = textwrap.dedent(source)
    report = lint_source(
        source,
        path="fixture.py",
        config=perf_config(),
        module=module,
        project=all_hot_project(source, module),
    )
    assert not report.parse_errors
    return report.findings


def perf_ids(source: str, module: str = "repro.sample.fixture") -> set:
    return {f.rule_id for f in perf_findings(source, module=module)}


def scoped_perf_findings(source: str, module: str = "repro.sample.fixture"):
    """PERF findings for ``source`` under its own computed hot set."""
    report = lint_source(
        textwrap.dedent(source),
        path="fixture.py",
        config=perf_config(),
        module=module,
    )
    assert not report.parse_errors
    return report.findings


def graph_of(source: str, module: str, path: str = "fixture.py") -> ProjectGraph:
    tree = ast.parse(textwrap.dedent(source))
    return ProjectGraph([summarize_of(tree, path, module)])


# ----------------------------------------------------------------------
# PERF001 — closure/lambda allocation
# ----------------------------------------------------------------------


class TestPERF001:
    def test_fires_on_lambda_and_nested_def(self):
        findings = perf_findings(
            """
            def outer(items):
                key = lambda item: item.penalty

                def helper(item):
                    return item.peer

                return sorted(items, key=key), helper
            """
        )
        perf001 = [f for f in findings if f.rule_id == "PERF001"]
        assert len(perf001) == 2
        assert any("lambda" in f.message for f in perf001)
        assert any("helper" in f.message for f in perf001)

    def test_quiet_on_module_level_functions(self):
        assert "PERF001" not in perf_ids(
            """
            def key(item):
                return item.penalty

            def outer(items):
                return sorted(items, key=key)
            """
        )


# ----------------------------------------------------------------------
# PERF002 — container displays per call / per iteration
# ----------------------------------------------------------------------


class TestPERF002:
    def test_fires_on_container_inside_loop(self):
        assert "PERF002" in perf_ids(
            """
            def classify(items):
                out = []
                for item in items:
                    out.append({"peer": item})
                return out
            """
        )

    def test_fires_on_comprehension_inside_loop(self):
        assert "PERF002" in perf_ids(
            """
            def scan(routers):
                total = 0
                for router in routers:
                    total += len([p for p in router])
                return total
            """
        )

    def test_fires_on_wide_dict_rebuilt_per_call(self):
        assert "PERF002" in perf_ids(
            """
            def describe(a, b, c):
                return {"a": a, "b": b, "c": c}
            """
        )

    def test_quiet_on_small_dict_outside_loops(self):
        assert "PERF002" not in perf_ids(
            """
            def describe(a, b):
                return {"a": a, "b": b}
            """
        )


# ----------------------------------------------------------------------
# PERF003 — repeated attribute chains in loops
# ----------------------------------------------------------------------


class TestPERF003:
    def test_fires_on_repeated_chain(self):
        findings = perf_findings(
            """
            class Sweep:
                def total(self, items):
                    total = 0.0
                    for item in items:
                        if item > self.params.cutoff:
                            total += self.params.cutoff
                    return total
            """
        )
        messages = [f.message for f in findings if f.rule_id == "PERF003"]
        assert len(messages) == 1
        assert "self.params.cutoff" in messages[0]

    def test_quiet_when_bound_to_local_before_loop(self):
        assert "PERF003" not in perf_ids(
            """
            class Sweep:
                def total(self, items):
                    cutoff = self.params.cutoff
                    total = 0.0
                    for item in items:
                        if item > cutoff:
                            total += cutoff
                    return total
            """
        )

    def test_quiet_when_chain_rooted_at_loop_target(self):
        assert "PERF003" not in perf_ids(
            """
            def walk(entries):
                out = []
                for entry in entries:
                    out.append(entry.route.prefix + entry.route.prefix)
                return out
            """
        )


# ----------------------------------------------------------------------
# PERF004 — eager string formatting
# ----------------------------------------------------------------------


class TestPERF004:
    def test_fires_on_fstring_format_and_percent(self):
        ids = [
            f.rule_id
            for f in perf_findings(
                """
                def fmt(peer, prefix):
                    a = f"peer {peer}"
                    b = "prefix {}".format(prefix)
                    c = "pair %s" % peer
                    return a, b, c
                """
            )
            if f.rule_id == "PERF004"
        ]
        assert len(ids) == 3

    def test_exempts_raise_and_assert_statements(self):
        assert "PERF004" not in perf_ids(
            """
            def guard(peer, delay):
                assert delay >= 0, f"negative delay for {peer}"
                if delay > 3600:
                    raise ValueError("delay {} too large".format(delay))
            """
        )


# ----------------------------------------------------------------------
# PERF005 — module-level default containers copied per call
# ----------------------------------------------------------------------


class TestPERF005:
    def test_fires_on_dict_factory_and_copy_method(self):
        findings = perf_findings(
            """
            DEFAULTS = {"suppress": 2000.0}

            def with_overrides(overrides):
                merged = dict(DEFAULTS)
                merged.update(overrides)
                return merged

            def snapshot():
                return DEFAULTS.copy()
            """
        )
        assert sum(1 for f in findings if f.rule_id == "PERF005") == 2

    def test_quiet_on_non_constant_names(self):
        assert "PERF005" not in perf_ids(
            """
            def merge(base, overrides):
                merged = dict(base)
                merged.update(overrides)
                return merged
            """
        )


# ----------------------------------------------------------------------
# PERF006 — non-__slots__ instantiation
# ----------------------------------------------------------------------


class TestPERF006:
    def test_fires_on_same_file_class_without_slots(self):
        assert "PERF006" in perf_ids(
            """
            class Outcome:
                def __init__(self, value):
                    self.value = value

            def record(value):
                return Outcome(value)
            """
        )

    def test_quiet_on_slotted_class(self):
        assert "PERF006" not in perf_ids(
            """
            class Outcome:
                __slots__ = ("value",)

                def __init__(self, value):
                    self.value = value

            def record(value):
                return Outcome(value)
            """
        )

    def test_quiet_on_unknown_names(self):
        # No same-file definition -> no claim about its layout.
        assert "PERF006" not in perf_ids(
            """
            def fail(message):
                return ValueError(message)
            """
        )


# ----------------------------------------------------------------------
# PERF007 — list growth by concatenation
# ----------------------------------------------------------------------


class TestPERF007:
    def test_fires_on_augmented_and_rebinding_concat(self):
        findings = perf_findings(
            """
            def gather(items):
                out = []
                for item in items:
                    out += [item]
                return out

            def gather_slow(items):
                out = []
                for item in items:
                    out = out + [item]
                return out
            """
        )
        assert sum(1 for f in findings if f.rule_id == "PERF007") == 2

    def test_quiet_on_append(self):
        assert "PERF007" not in perf_ids(
            """
            def gather(items):
                out = []
                for item in items:
                    out.append(item)
                return out
            """
        )


# ----------------------------------------------------------------------
# PERF008 — materialized membership tests
# ----------------------------------------------------------------------


class TestPERF008:
    def test_fires_on_keys_view_and_list_materialization(self):
        findings = perf_findings(
            """
            def probe(table, key):
                if key in table.keys():
                    return True
                return key in list(table)
            """
        )
        assert sum(1 for f in findings if f.rule_id == "PERF008") == 2

    def test_quiet_on_direct_mapping_test(self):
        assert "PERF008" not in perf_ids(
            """
            def probe(table, key):
                return key in table
            """
        )


# ----------------------------------------------------------------------
# PERF009 — eagerly formatted logging
# ----------------------------------------------------------------------


class TestPERF009:
    def test_fires_on_fstring_logger_argument(self):
        assert "PERF009" in perf_ids(
            """
            def trace(log, peer, penalty):
                log.debug(f"peer {peer} penalty {penalty}")
            """
        )

    def test_quiet_on_lazy_percent_arguments(self):
        assert "PERF009" not in perf_ids(
            """
            def trace(log, peer, penalty):
                log.debug("peer %s penalty %s", peer, penalty)
            """
        )


# ----------------------------------------------------------------------
# PERF010 — constant containers rebuilt per call
# ----------------------------------------------------------------------


class TestPERF010:
    def test_fires_on_tuple_needing_runtime_construction(self):
        assert "PERF010" in perf_ids(
            """
            def is_edge(value):
                return value in (float("inf"), float("-inf"))
            """
        )

    def test_fires_on_constant_re_compile(self):
        assert "PERF010" in perf_ids(
            """
            import re

            def parse(text):
                return re.compile(r"[0-9]+").match(text)
            """
        )

    def test_quiet_on_pure_literal_displays(self):
        # The compiler folds these; no per-call allocation.
        assert "PERF010" not in perf_ids(
            """
            def is_small(value):
                return value in (1, 2, 3)
            """
        )


# ----------------------------------------------------------------------
# scoping by the hot set
# ----------------------------------------------------------------------


class TestHotSetSeverity:
    def test_phase_root_fixture_is_warning(self):
        # ``repro.sim.engine.Engine._drain`` is a timer_dispatch phase
        # root, and every phase root is hot.
        findings = scoped_perf_findings(
            """
            class Engine:
                def _drain(self, event):
                    return f"event {event}"
            """,
            module="repro.sim.engine",
        )
        perf004 = [f for f in findings if f.rule_id == "PERF004"]
        assert len(perf004) == 1
        assert "hot function" in perf004[0].message

    def test_unprofiled_fixture_is_not_checked(self):
        assert not scoped_perf_findings(
            """
            def helper(event):
                return f"event {event}"
            """
        )

    def test_callback_registration_makes_function_hot(self):
        findings = scoped_perf_findings(
            """
            class Owner:
                def arm(self, engine):
                    engine.schedule(5.0, self._fire, tag="reuse")

                def _fire(self):
                    return f"tick {self}"
            """
        )
        perf004 = [f for f in findings if f.rule_id == "PERF004"]
        assert len(perf004) == 1

    def test_hot_callees_inherit_heat_transitively(self):
        findings = scoped_perf_findings(
            """
            def select_best(candidates, local_pref):
                return shared_helper(candidates)

            def shared_helper(candidates):
                return f"best of {candidates}"

            def unrelated(candidates):
                return f"copy of {candidates}"
            """,
            module="repro.bgp.decision",
        )
        perf004 = [f for f in findings if f.rule_id == "PERF004"]
        assert len(perf004) == 1
        assert "shared_helper" in perf004[0].message


# ----------------------------------------------------------------------
# the hot set as a pure function of the source tree
# ----------------------------------------------------------------------

_GRAPH_SOURCE = """
def select_best(candidates, local_pref):
    return shared_helper(candidates)

def shared_helper(candidates):
    return candidates

def unrelated(candidates):
    return list(candidates)
"""


class TestHotFunctions:
    def test_hot_set_closes_over_call_graph(self):
        hot = hot_functions(graph_of(_GRAPH_SOURCE, "repro.bgp.decision"))
        assert "repro.bgp.decision.select_best" in hot
        assert "repro.bgp.decision.shared_helper" in hot
        assert "repro.bgp.decision.unrelated" not in hot

    def test_hot_set_is_the_same_from_any_working_directory(
        self, tmp_path, monkeypatch
    ):
        here = hot_functions(graph_of(_GRAPH_SOURCE, "repro.bgp.decision"))
        # The hot set depends on the call graph only, not on the directory.
        monkeypatch.chdir(tmp_path)
        assert hot_functions(graph_of(_GRAPH_SOURCE, "repro.bgp.decision")) == here


# ----------------------------------------------------------------------
# catalogue completeness
# ----------------------------------------------------------------------


def test_catalogue_ids_are_sequential():
    assert PERF_RULE_IDS == tuple(f"PERF{n:03d}" for n in range(1, 11))


@pytest.mark.parametrize("rule_id", PERF_RULE_IDS)
def test_every_perf_rule_is_registered(rule_id):
    from repro.lint import all_rule_ids

    assert rule_id in all_rule_ids()


# ----------------------------------------------------------------------
# the one suppression spelling
# ----------------------------------------------------------------------

_HOT_FSTRING = """
class Engine:
    def _drain(self, event):
        return f"event {event}"  # {directive}
"""


def _suppression_report(directive: str):
    return lint_source(
        textwrap.dedent(_HOT_FSTRING.replace("{directive}", directive)),
        path="fixture.py",
        config=perf_config(),
        module="repro.sim.engine",
    )


class TestSuppressionPrefixes:
    def test_generic_lint_prefix_suppresses_perf_finding(self):
        report = _suppression_report("lint: disable=PERF004")
        assert "PERF004" not in {f.rule_id for f in report.findings}
        assert "PERF004" in {f.rule_id for f in report.suppressed}

    @pytest.mark.parametrize("prefix", ["detlint", "perflint", "semlint", "timerlint"])
    def test_retired_prefixes_are_inert(self, prefix):
        report = _suppression_report(f"{prefix}: disable=PERF004")
        assert "PERF004" in {f.rule_id for f in report.findings}
        assert not report.suppressed
