"""Run-path tests for :func:`repro.lint.lint_paths`.

The driver has one run path: every file is parsed once, its local rules
run, and the PERF rules then run on the same contexts against a project
graph stitched from every file. These tests pin the parse-once
guarantee and that the perf pass is genuinely cross-file.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.lint import lint_paths, make_config

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


@pytest.fixture
def tree(tmp_path):
    # The ``repro`` path segment gives the files real module names, so
    # cross-file imports resolve in the project graph.
    pkg = tmp_path / "proj" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(textwrap.dedent(ALPHA_COLD))
    (pkg / "beta.py").write_text(textwrap.dedent(BETA))
    return tmp_path / "proj"


def run(tree):
    return lint_paths([str(tree)], make_config(passes=("all",)))


class TestCallGraphInvalidation:
    def test_edge_change_reruns_other_files_perf_pass(self, tree):
        cold = run(tree)
        assert not [
            f for f in cold.findings if f.rule_id == "PERF004"
        ]  # nothing is hot yet

        # Rewire alpha: registering beta.helper as an engine callback
        # pulls it into the hot set, so *beta* gains a PERF finding
        # although beta's source did not change.
        (tree / "repro" / "alpha.py").write_text(textwrap.dedent(ALPHA_HOT))
        rewired = run(tree)
        beta_findings = [
            f
            for f in rewired.findings
            if f.rule_id == "PERF004" and f.path.endswith("beta.py")
        ]
        assert beta_findings


class TestParseOnce:
    """A file is parsed exactly once per run, for both phases."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        names = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            names.append(str(filename).rsplit("/", 1)[-1])
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        return names

    def test_cold_run_parses_each_file_exactly_once(self, tree, parsed):
        run(tree)
        assert sorted(parsed) == ["alpha.py", "beta.py"]
