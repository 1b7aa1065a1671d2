"""Unit tests for the determinism (DET) rule catalogue.

Every rule gets the same three-way treatment: a small synthetic fixture
that must fire, the same fixture with a ``# lint: disable=...``
comment that must stay silent, and compliant code the rule must not
flag. Framework behaviour (suppressions, select/ignore, reporters,
module scoping) is covered at the end.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    RULE_IDS,
    all_rule_ids,
    iter_rules,
    lint_paths,
    lint_source,
    make_config,
    parse_suppressions,
    render_json,
    render_rule_list,
    render_text,
)


def findings_for(source: str, module: str = "repro.sim.fixture") -> list:
    report = lint_source(textwrap.dedent(source), path="fixture.py", module=module)
    assert not report.parse_errors
    return report.findings


def rule_ids_of(source: str, module: str = "repro.sim.fixture") -> set:
    return {f.rule_id for f in findings_for(source, module=module)}


# ----------------------------------------------------------------------
# DET002 — global random state
# ----------------------------------------------------------------------


class TestDET002:
    def test_fires_on_module_level_random(self):
        ids = rule_ids_of(
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """
        )
        assert "DET002" in ids

    def test_fires_on_literal_seeded_random(self):
        ids = rule_ids_of(
            """
            import random

            def chooser():
                return random.Random(0)
            """
        )
        assert "DET002" in ids

    def test_fires_on_unseeded_random_constructor(self):
        ids = rule_ids_of(
            """
            import random

            def chooser():
                return random.Random()
            """
        )
        assert "DET002" in ids

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            import random

            def jitter():
                return random.random()  # lint: disable=DET002
            """
        )

    def test_quiet_on_injected_generator_and_derived_seed(self):
        assert not findings_for(
            """
            import random

            def jitter(rng):
                return rng.uniform(0.0, 1.0)

            def derived(seed):
                return random.Random(seed + 1)
            """
        )


# ----------------------------------------------------------------------
# DET006 — re-entrant engine runs
# ----------------------------------------------------------------------


class TestDET006:
    def test_fires_on_closure_calling_run(self):
        ids = rule_ids_of(
            """
            def schedule_probe(engine):
                def probe():
                    engine.run(until=engine.now + 1.0)
                engine.schedule(0.0, probe)
            """
        )
        assert "DET006" in ids

    def test_fires_on_lambda_and_self_engine(self):
        ids = rule_ids_of(
            """
            class Driver:
                def arm(self):
                    self._engine.schedule(0.0, lambda: self._engine.step())
            """
        )
        assert "DET006" in ids

    def test_respects_disable_comment(self):
        # (PERF001 may flag the nested def; DET006 must stay silent.)
        assert "DET006" not in rule_ids_of(
            """
            def schedule_probe(engine):
                def probe():
                    engine.run()  # lint: disable=DET006
                engine.schedule(0.0, probe)
            """
        )

    def test_quiet_on_top_level_run_and_other_receivers(self):
        assert not findings_for(
            """
            def drive(engine, scenario):
                engine.run_until_idle(max_time=100.0)
                return scenario.run(None)

            class Scenario:
                def run(self, schedule):
                    self.engine.run_until_idle(max_time=10.0)
            """
        )


# ----------------------------------------------------------------------
# DET010 — process fan-out outside the sweep executor
# ----------------------------------------------------------------------


class TestDET010:
    def test_fires_on_multiprocessing_import(self):
        ids = rule_ids_of(
            """
            import multiprocessing

            def fan_out(items):
                with multiprocessing.Pool() as pool:
                    return pool.map(str, items)
            """,
            module="repro.experiments.fixture",
        )
        assert "DET010" in ids

    def test_fires_on_concurrent_futures_from_import(self):
        ids = rule_ids_of(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(str, items))
            """,
            module="repro.experiments.fixture",
        )
        assert "DET010" in ids

    def test_fires_on_os_fork(self):
        ids = rule_ids_of(
            """
            import os

            def split():
                return os.fork()
            """,
            module="repro.experiments.fixture",
        )
        assert "DET010" in ids

    def test_silent_in_executor_module(self):
        assert "DET010" not in rule_ids_of(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """,
            module="repro.experiments.parallel",
        )

    def test_suppression_comment_works(self):
        assert "DET010" not in rule_ids_of(
            """
            import multiprocessing  # lint: disable=DET010
            """,
            module="repro.experiments.fixture",
        )

    def test_silent_on_unrelated_imports_and_os_use(self):
        assert "DET010" not in rule_ids_of(
            """
            import os
            from concurrentutils import helpers

            def cpu_count():
                return os.cpu_count()
            """,
            module="repro.experiments.fixture",
        )


# ----------------------------------------------------------------------
# framework behaviour
# ----------------------------------------------------------------------


class TestFramework:
    def test_catalogue_is_complete(self):
        expected = (
            {"DET002", "DET006", "DET010"}
            | {"SEM001", "SEM002", "SEM005", "SEM007"}
            | {"TIM001", "TIM002", "TIM006"}
            | {f"PERF00{i}" for i in range(1, 10)}
            | {"PERF010"}
        )
        assert set(RULE_IDS) == expected
        assert all_rule_ids() == frozenset(expected)

    def test_every_rule_has_title_and_rationale(self):
        for rule in iter_rules():
            assert rule.id and rule.title and rule.rationale

    def test_disable_all_token(self):
        assert not findings_for(
            """
            import random

            def draw():
                return random.random()  # lint: disable=all
            """
        )

    def test_suppressed_findings_are_still_recorded(self):
        report = lint_source(
            "import random\nr = random.random()  # lint: disable=DET002\n",
            path="fixture.py",
        )
        assert not report.findings
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppressed

    def test_parse_suppressions_ignores_strings(self):
        mapping = parse_suppressions(
            's = "# lint: disable=DET002"\nt = 1  # lint: disable=DET006,DET010\n'
        )
        assert mapping == {2: {"DET006", "DET010"}}

    def test_select_and_ignore(self):
        source = "import multiprocessing, random\nb = random.random()\n"
        only_002 = lint_source(
            source, config=make_config(select=("DET002",))
        ).findings
        assert {f.rule_id for f in only_002} == {"DET002"}
        without_002 = lint_source(
            source, config=make_config(ignore=("DET002",))
        ).findings
        assert {f.rule_id for f in without_002} == {"DET010"}

    def test_unknown_rule_id_rejected(self):
        config = make_config(select=("DET999",))
        with pytest.raises(ConfigurationError):
            config.validate(all_rule_ids())

    def test_lint_paths_on_fixture_dir(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import random\nr = random.random()\n", encoding="utf-8"
        )
        (tmp_path / "good.py").write_text("x = 1\n", encoding="utf-8")
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert [f.rule_id for f in report.findings] == ["DET002"]
        assert report.findings[0].path.endswith("bad.py")
        assert not report.ok

    def test_parse_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="broken.py")
        assert report.parse_errors and not report.ok

    def test_text_reporter_shows_rule_and_location(self):
        report = lint_source("import random\nr = random.random()\n", path="pkg/mod.py")
        text = render_text(report)
        assert "pkg/mod.py:2:" in text
        assert "DET002" in text

    def test_json_reporter_round_trips(self):
        report = lint_source("import random\nr = random.random()\n", path="mod.py")
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"DET002": 1}
        assert payload["findings"][0]["line"] == 2

    def test_rule_list_rendering(self):
        listing = render_rule_list()
        for rule_id in RULE_IDS:
            assert rule_id in listing


# ----------------------------------------------------------------------
# pass selection
# ----------------------------------------------------------------------


class TestPassSelection:
    SOURCE = (
        "import heapq, random\n"
        "def f(queue, item):\n"
        "    r = random.random()\n"
        "    heapq.heappush(queue, item)\n"
    )

    def test_det_pass_runs_only_det_rules(self):
        report = lint_source(self.SOURCE, config=make_config(passes=("det",)))
        assert {f.rule_id for f in report.findings} == {"DET002"}

    def test_sem_pass_runs_only_sem_rules(self):
        report = lint_source(self.SOURCE, config=make_config(passes=("sem",)))
        assert {f.rule_id for f in report.findings} == {"SEM002"}

    def test_all_expands_to_both(self):
        report = lint_source(self.SOURCE, config=make_config(passes=("all",)))
        assert {f.rule_id for f in report.findings} == {"DET002", "SEM002"}

    def test_unknown_pass_rejected(self):
        config = make_config(passes=("mem",))
        with pytest.raises(ConfigurationError):
            config.validate(all_rule_ids())

    def test_empty_pass_set_rejected(self):
        config = make_config(passes=())
        with pytest.raises(ConfigurationError):
            config.validate(all_rule_ids())


# ----------------------------------------------------------------------
# suppression scoping: continuation and decorator lines
# ----------------------------------------------------------------------


class TestSuppressionScoping:
    def test_directive_on_continuation_line_is_honoured(self):
        # The flagged call spans three lines; the directive sits on the
        # middle one, not on the anchor line.
        report = lint_source(
            textwrap.dedent(
                """
                import random

                def draw(population):
                    return random.choice(
                        population,  # lint: disable=DET002
                    )
                """
            ),
            path="fixture.py",
        )
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["DET002"]

    def test_directive_on_decorator_line_covers_the_def(self):
        source = """
            def cached(fn):
                return fn

            @cached  # lint: disable=SEM001
            def select_best(candidates, engine):
                return max(candidates), engine.now
            """
        assert not findings_for(source, module="repro.bgp.decision")

    def test_directive_inside_function_body_does_not_cover_def_finding(self):
        # SEM001 anchors at the def header; a disable=all buried in the
        # body must not silence it.
        report = lint_source(
            textwrap.dedent(
                """
                def select_best(candidates, engine):
                    t = engine.now  # lint: disable=all
                    return max(candidates)
                """
            ),
            module="repro.bgp.decision",
        )
        assert {f.rule_id for f in report.findings} == {"SEM001"}

    def test_directive_on_def_header_covers_def_finding(self):
        report = lint_source(
            textwrap.dedent(
                """
                def select_best(candidates, engine):  # lint: disable=SEM001
                    t = engine.now
                    return max(candidates)
                """
            ),
            module="repro.bgp.decision",
        )
        assert not report.findings
        assert [f.rule_id for f in report.suppressed] == ["SEM001"]


# ----------------------------------------------------------------------
# JSON reporter schema
# ----------------------------------------------------------------------

#: Hand-written schema for the JSON report: field name -> required type.
_REPORT_SCHEMA = {
    "ok": bool,
    "files_checked": int,
    "finding_count": int,
    "counts_by_rule": dict,
    "findings": list,
    "suppressed": list,
    "parse_errors": list,
}

_FINDING_SCHEMA = {
    "rule": str,
    "message": str,
    "path": str,
    "line": int,
    "col": int,
    "end_line": int,
    "suppressed": bool,
}


def _check_schema(payload: dict, schema: dict) -> None:
    assert set(payload) == set(schema), (
        f"field mismatch: {sorted(set(payload) ^ set(schema))}"
    )
    for name, expected_type in schema.items():
        assert isinstance(payload[name], expected_type), (
            f"{name}: expected {expected_type.__name__}, "
            f"got {type(payload[name]).__name__}"
        )


class TestJsonSchema:
    def test_report_and_findings_match_schema(self):
        report = lint_source(
            "import random\n"
            "a = random.random()\n"
            "b = random.random()  # lint: disable=DET002\n",
            path="mod.py",
        )
        payload = json.loads(render_json(report))
        _check_schema(payload, _REPORT_SCHEMA)
        assert payload["findings"] and payload["suppressed"]
        for row in payload["findings"] + payload["suppressed"]:
            _check_schema(row, _FINDING_SCHEMA)
        assert payload["findings"][0]["end_line"] >= payload["findings"][0]["line"]

    def test_schema_round_trip_preserves_counts(self):
        report = lint_source(
            "import multiprocessing, random\nr = random.random()\n",
            path="mod.py",
        )
        payload = json.loads(render_json(report))
        assert payload["finding_count"] == len(payload["findings"]) == 2
        assert payload["counts_by_rule"] == {"DET002": 1, "DET010": 1}
        # Round-trip: serialising the parsed payload again is stable.
        assert json.loads(json.dumps(payload)) == payload
