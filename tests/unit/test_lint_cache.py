"""Invalidation tests for the incremental lint cache.

The contract under test: the cache is a *pure accelerator*. Whatever
combination of warm entries, edits, rule-set bumps, call-graph rewires,
or corrupted cache files the engine encounters, the merged report must
be byte-identical (as rendered JSON) to a cold uncached run of the
same tree — the cache may only change *how much work* that takes, which
the hit/miss counters make observable.
"""

from __future__ import annotations

import ast
import json
import textwrap

import pytest

import repro.lint.cache as cache_module
from repro.lint import lint_paths, make_config, render_json

ALPHA_COLD = '''
"""Alpha fixture: plain cross-file caller."""

from repro.beta import helper


def use(value):
    return helper(value)
'''

ALPHA_HOT = '''
"""Alpha fixture: registers beta's helper as an engine callback."""

from repro.beta import helper


def arm(engine):
    engine.schedule(5.0, helper, tag="reuse")
'''

BETA = '''
"""Beta fixture: the formatting hazard lives here."""


def helper(value):
    return f"value {value}"
'''

BETA_EDITED = '''
"""Beta fixture: the formatting hazard lives here."""


def helper(value):
    return f"value {value}"


def extra(value):
    return f"extra {value}"
'''


@pytest.fixture
def tree(tmp_path):
    # The ``repro`` path segment gives the files real module names, so
    # cross-file imports resolve in the project graph.
    pkg = tmp_path / "proj" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(textwrap.dedent(ALPHA_COLD))
    (pkg / "beta.py").write_text(textwrap.dedent(BETA))
    return tmp_path / "proj"


def config():
    return make_config(passes=("all",))


def run(tree, cache_dir=None):
    report = lint_paths(
        [str(tree)], config(), cache_dir=str(cache_dir) if cache_dir else None
    )
    return report


def stats(report):
    assert report.cache_stats is not None
    return report.cache_stats


class TestWarmRuns:
    def test_cold_then_warm_is_byte_identical(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        assert stats(cold) == {
            "local_hits": 0,
            "local_misses": 2,
            "perf_hits": 0,
            "perf_misses": 2,
        }
        warm = run(tree, cache_dir)
        assert stats(warm) == {
            "local_hits": 2,
            "local_misses": 0,
            "perf_hits": 2,
            "perf_misses": 0,
        }
        assert render_json(warm) == render_json(cold)

    def test_cache_stats_absent_without_cache_dir(self, tree):
        report = run(tree)
        assert report.cache_stats is None


class TestEditOneFile:
    def test_only_edited_file_reanalyzed(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        run(tree, cache_dir)
        (tree / "repro" / "beta.py").write_text(textwrap.dedent(BETA_EDITED))
        warm = run(tree, cache_dir)
        # alpha: local + perf both cached; beta: both re-run (its source
        # digest changed, which also invalidates its perf entry).
        assert stats(warm) == {
            "local_hits": 1,
            "local_misses": 1,
            "perf_hits": 1,
            "perf_misses": 1,
        }
        fresh = run(tree, tmp_path / "fresh_cache")
        assert render_json(warm) == render_json(fresh)


class TestCallGraphInvalidation:
    def test_edge_change_reruns_other_files_perf_pass(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        assert not [
            f for f in cold.findings if f.rule_id == "PERF004"
        ]  # nothing is hot yet

        # Rewire alpha: registering beta.helper as an engine callback
        # pulls it into the hot set, so *beta's* hot slice changes even
        # though beta's source did not.
        (tree / "repro" / "alpha.py").write_text(textwrap.dedent(ALPHA_HOT))
        warm = run(tree, cache_dir)
        assert stats(warm) == {
            "local_hits": 1,      # beta's local passes stay cached
            "local_misses": 1,    # alpha was edited
            "perf_hits": 0,
            "perf_misses": 2,     # both hot slices changed
        }
        beta_findings = [
            f
            for f in warm.findings
            if f.rule_id == "PERF004" and f.path.endswith("beta.py")
        ]
        assert beta_findings
        fresh = run(tree, tmp_path / "fresh_cache")
        assert render_json(warm) == render_json(fresh)

    def test_unrelated_edit_keeps_perf_entries(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        run(tree, cache_dir)
        # A comment-only edit to alpha leaves every call-graph summary
        # and hot slice intact: beta must not be re-analysed at all.
        alpha = tree / "repro" / "alpha.py"
        alpha.write_text(alpha.read_text() + "\n# trailing comment\n")
        warm = run(tree, cache_dir)
        assert stats(warm) == {
            "local_hits": 1,
            "local_misses": 1,
            "perf_hits": 1,
            "perf_misses": 1,  # alpha's own sha changed
        }


class TestParseOnce:
    """A file is parsed at most once per run, and not at all when every
    cache entry it needs hits."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        names = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            names.append(str(filename).rsplit("/", 1)[-1])
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        return names

    @pytest.mark.parametrize("cached", [True, False])
    def test_cold_run_parses_each_file_exactly_once(
        self, tree, tmp_path, parsed, cached
    ):
        run(tree, tmp_path / "cache" if cached else None)
        assert sorted(parsed) == ["alpha.py", "beta.py"]

    def test_warm_run_parses_nothing(self, tree, tmp_path, parsed):
        run(tree, tmp_path / "cache")
        del parsed[:]
        run(tree, tmp_path / "cache")
        assert parsed == []

    def test_hot_slice_change_parses_the_edited_and_the_affected_file(
        self, tree, tmp_path, parsed
    ):
        run(tree, tmp_path / "cache")
        del parsed[:]
        # Alpha's new call edge heats beta.helper: alpha is re-linted,
        # and beta — a local cache hit — is parsed for its perf pass only.
        (tree / "repro" / "alpha.py").write_text(textwrap.dedent(ALPHA_HOT))
        run(tree, tmp_path / "cache")
        assert sorted(parsed) == ["alpha.py", "beta.py"]


class TestRuleSetVersion:
    def test_version_bump_invalidates_everything(self, tree, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        # The rule-set signature covers the lint package's own source: a
        # different source digest must make every entry invisible.
        monkeypatch.setattr(cache_module, "lint_source_digest", lambda: "0" * 64)
        bumped = run(tree, cache_dir)
        assert stats(bumped) == {
            "local_hits": 0,
            "local_misses": 2,
            "perf_hits": 0,
            "perf_misses": 2,
        }
        assert render_json(bumped) == render_json(cold)

    def test_config_change_never_aliases_entries(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        run(tree, cache_dir)
        narrowed = make_config(passes=("perf",))
        report = lint_paths([str(tree)], narrowed, cache_dir=str(cache_dir))
        # Different config digest -> the previous entries are invisible.
        assert stats(report)["local_misses"] == 2
        assert {f.rule_id[:4] for f in report.findings} <= {"PERF"}


class TestCorruptCache:
    def test_corrupt_cache_file_treated_as_empty(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        (cache_dir / cache_module.CACHE_FILENAME).write_text("{not json")
        warm = run(tree, cache_dir)
        assert stats(warm) == {
            "local_hits": 0,
            "local_misses": 2,
            "perf_hits": 0,
            "perf_misses": 2,
        }
        assert render_json(warm) == render_json(cold)

    def test_stale_entry_forces_reanalysis_of_that_file_only(
        self, tree, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        cache_file = cache_dir / cache_module.CACHE_FILENAME
        payload = json.loads(cache_file.read_text())
        beta_key = next(k for k in payload["files"] if k.endswith("beta.py"))
        payload["files"][beta_key]["sha"] = "0" * 64
        cache_file.write_text(json.dumps(payload))
        warm = run(tree, cache_dir)
        assert stats(warm)["local_misses"] == 1
        assert stats(warm)["local_hits"] == 1
        assert render_json(warm) == render_json(cold)
