"""Repository-level consistency checks.

These guard the promises the documentation makes: every experiment in
the registry has a benchmark that regenerates it, every example script
is syntactically valid and importable, and the public API exports
resolve.
"""

from __future__ import annotations

import ast
import functools
import io
import pathlib
import tokenize

import pytest

import repro
from repro.experiments.registry import EXPERIMENTS, Bespoke

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
EXAMPLES_DIR = REPO_ROOT / "examples"


def _bench_sources() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8") for path in BENCH_DIR.glob("test_*.py")
    )


def test_every_registered_experiment_has_a_benchmark():
    """Each table entry is run by a benchmark — sweeps by id, bespoke
    drivers by name — and has its rendering committed."""
    sources = _bench_sources()
    for experiment_id, entry in EXPERIMENTS.items():
        wanted = (
            entry.driver.__name__
            if isinstance(entry, Bespoke)
            else f'run_experiment, "{experiment_id}"'
        )
        assert wanted in sources, f"experiment {experiment_id} has no benchmark"
        assert (BENCH_DIR / "results" / f"{experiment_id}.txt").exists()


def test_every_experiment_driver_is_callable_without_arguments():
    import inspect

    bespoke = {k: e.driver for k, e in EXPERIMENTS.items() if isinstance(e, Bespoke)}
    assert len(bespoke) == 8
    for experiment_id, driver in bespoke.items():
        signature = inspect.signature(driver)
        required = [
            name
            for name, parameter in signature.parameters.items()
            if parameter.default is inspect.Parameter.empty
            and parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]
        assert not required, f"{experiment_id}: required params {required}"


def test_examples_parse_and_have_main():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 5, "expected at least five example scripts"
    for script in scripts:
        tree = ast.parse(script.read_text(encoding="utf-8"))
        functions = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions, f"{script.name} has no main()"
        assert ast.get_docstring(tree), f"{script.name} has no module docstring"


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_all_documented_artefacts_registered():
    """DESIGN.md's experiment index and the registry must agree."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for experiment_id in EXPERIMENTS:
        assert f"| {experiment_id} " in design, (
            f"{experiment_id} missing from DESIGN.md experiment index"
        )


def test_every_package_module_has_docstring():
    source_root = REPO_ROOT / "src" / "repro"
    missing = []
    for path in source_root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(REPO_ROOT)))
    assert not missing, f"modules without docstrings: {missing}"


@pytest.mark.parametrize("required", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_documentation_files_exist(required):
    path = REPO_ROOT / required
    assert path.exists() and path.stat().st_size > 1000


@functools.lru_cache(maxsize=None)
def _full_tree_lint():
    from repro.lint import lint_paths, make_config

    return lint_paths([str(REPO_ROOT / "src")], make_config(passes=("all",)))


def test_detlint_full_tree_is_clean():
    """Tier-1 static-analysis gate: the whole source tree passes all
    four lint passes with no findings.

    This is the machine-checked form of the conventions the engine's and
    the RFD layers' docstrings promise — see docs/STATIC_ANALYSIS.md.
    A finding means the global RNG, hand-rolled timer bookkeeping, a
    leaked timer handle, a hot-path allocation, or one of the other
    DET/SEM/TIM/PERF hazards crept into src/; fix it or justify a
    construct-scoped ``# lint: disable=...`` suppression.
    """
    from repro.lint import render_text

    report = _full_tree_lint()
    assert report.files_checked > 50
    assert report.ok, "\n" + render_text(report)


def test_every_suppression_directive_names_a_rule_and_silences_a_finding():
    """Each ``disable=`` comment under ``src/`` is spelt ``# lint:
    disable=ID[,ID|all]``, names registered rules only, and silences at
    least one finding of the full-tree lint: a directive left behind by
    a retired rule or a fixed hazard fails here."""
    from repro.lint import RULE_IDS

    silenced = {}
    for finding in _full_tree_lint().suppressed:
        for line in range(finding.line, finding.end_line + 1):
            silenced.setdefault((finding.path, line), set()).add(finding.rule_id)
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT or "disable=" not in token.string:
                continue
            where = f"{path.relative_to(REPO_ROOT)}:{token.start[0]}"
            text = token.string.lstrip("#").strip()
            prefix, _, listed = text.partition("disable=")
            named = {part.strip() for part in listed.split(",") if part.strip()}
            hits = silenced.get((str(path), token.start[0]), set())
            if prefix != "lint: ":
                problems.append(f"{where}: not spelt '# lint: disable=...'")
            elif not named <= set(RULE_IDS) | {"all"}:
                problems.append(f"{where}: unknown rule id(s) {sorted(named)}")
            elif not (hits if "all" in named else hits & named):
                problems.append(f"{where}: silences no finding")
    assert not problems, problems


def test_path_scoped_rules_survive_a_checkout_directory_named_repro():
    """The gate above lints an absolute path; a clone into ``repro/``
    must not rename every module and move the path-scoped rules' scope:
    DET010 exempts the sweep executor and nothing else."""
    from repro.lint import lint_source, make_config
    from repro.lint.runner import module_name_for

    source = "import multiprocessing\n"
    for root in ("src/", "/home/u/repro/src/"):
        for module, expected in (
            ("repro.experiments.parallel", []),
            ("repro.sim.x", ["DET010"]),
        ):
            path = root + module.replace(".", "/") + ".py"
            assert module_name_for(path) == module
            report = lint_source(source, path, make_config(passes=("det",)))
            assert [f.rule_id for f in report.findings] == expected
    assert module_name_for("repro/sim/__init__.py") == "repro.sim"


def test_every_phase_root_names_a_function_in_src():
    """A renamed root otherwise drops out of the hot set without a word
    and the PERF rules stop checking it."""
    from repro.lint import FileContext, LintConfig, ProjectGraph, summarize
    from repro.lint.perf import PHASE_ROOTS
    from repro.lint.runner import module_name_for

    project = ProjectGraph(
        summarize(
            FileContext(
                path=str(path),
                tree=ast.parse(path.read_text(encoding="utf-8")),
                config=LintConfig(),
                module=module_name_for(str(path)),
            )
        )
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
    )
    missing = [
        name
        for names in PHASE_ROOTS.values()
        for name in names
        if project.path_of(name) is None
    ]
    assert not missing, f"PHASE_ROOTS names no function in src/: {missing}"


def test_engine_fires_events_in_one_place():
    """One dispatch loop: exactly one function of ``repro.sim.engine``
    calls an event's ``callback`` and exactly one pops the heap."""
    tree = ast.parse(
        (REPO_ROOT / "src" / "repro" / "sim" / "engine.py").read_text(encoding="utf-8")
    )
    firing, popping = [], []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        called = {
            call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
            for call in ast.walk(func)
            if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Attribute, ast.Name))
        }
        if "callback" in called:
            firing.append(func.name)
        if "heappop" in called:
            popping.append(func.name)
    assert firing == ["_drain"]
    assert popping == ["_drain"]


def test_detlint_rule_catalogue_is_documented():
    """Every rule id appears in docs/STATIC_ANALYSIS.md with its rationale."""
    from repro.lint import RULE_IDS

    doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    for rule_id in RULE_IDS:
        assert rule_id in doc, f"{rule_id} missing from docs/STATIC_ANALYSIS.md"


def test_every_bench_shim_site_resolves(monkeypatch):
    """The frozen benchmark (``bench/``, run by the merge gate) shims
    ~30 ``src/`` callables by owner and name and restores them from
    ``vars(owner)``; a rename or a move to a base class must fail here,
    not only in the CI-only ``pytest bench`` step."""
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from bench.trace import Recorder, _shim_plan, shims_installed

    plan = _shim_plan(Recorder())
    assert len(plan) >= 30
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _replacement in plan
        if attribute not in vars(owner)
    ]
    assert not missing, f"bench/trace.py shims names src/ no longer defines: {missing}"
    assert shims_installed() == []


SRC_ROOT = REPO_ROOT / "src" / "repro"


def _callers(*callees: str) -> dict:
    """``{callee: {"path::function", ...}}`` for every call to one of
    ``callees`` (bare name or attribute) under ``src/repro``."""
    sites = {callee: set() for callee in callees}
    for path in SRC_ROOT.rglob("*.py"):
        module = str(path.relative_to(SRC_ROOT))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in sites:
                        sites[name].add(f"{module}::{func.name}")
    return sites


def test_one_function_builds_and_warms_a_measured_scenario():
    """Build → warm-up → run is spelt out once, but for two that own a
    stage boundary: ``run_scale_episode`` times each stage and ``capture``
    stops after the warm-up (and is a frozen ``bench/`` shim site)."""
    runner = "workload/scenarios.py::run_scenario"
    sites = _callers("Scenario", "check_converged_invariants", "enable_timer_audit")
    assert sites["Scenario"] == {
        runner,
        "workload/scenarios.py::capture",
        "experiments/scale.py::run_scale_episode",
    }
    oracle = sites["check_converged_invariants"]
    assert {s for s in oracle if not s.startswith("analysis/")} == {runner}
    audit = sites["enable_timer_audit"]
    assert {s for s in audit if not s.startswith("sim/")} == {runner}


def test_cli_errors_are_handled_in_main():
    """No function of ``cli.py`` but ``main`` has an ``except`` handler
    that returns an integer or prints to a ``file=``."""
    tree = ast.parse((SRC_ROOT / "cli.py").read_text(encoding="utf-8"))
    offenders = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name != "main"
        for handler in ast.walk(func)
        if isinstance(handler, ast.ExceptHandler)
        for node in ast.walk(handler)
        if (
            isinstance(node, ast.Return)
            and isinstance(getattr(node.value, "value", None), int)
        )
        or (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "print"
            and any(keyword.arg == "file" for keyword in node.keywords)
        )
    ]
    assert not offenders, f"cli.py handles errors outside main(): {offenders}"


#: Functions nothing under src/, bench/, benchmarks/ or examples/ names,
#: kept for the reason given. This list may only shrink.
KEPT_WITHOUT_A_CALLER = {
    "pending_prefixes": "MRAI property tests observe the limiter's dirty set",
    "has_pending": "MRAI property tests observe the limiter's dirty set",
    "has_seen": "RCN property tests observe the root-cause history",
    "peer_history_size": "RCN property tests observe the root-cause history",
    "penalty_after_pulses": "closed-form oracle the simulator is checked against",
    "tie_count": "the schedule-race detector's result (detect_schedule_ties)",
    "ties_by_tag_pair": "the schedule-race detector's result",
    "events_sampled": "allocation-audit tests check the probe saw every event",
    "providers_of": "relationship-assignment tests read the provider hierarchy",
    "is_announcement": "how protocol tests read an UpdateMessage",
    "dump_state": "router state dump; ROADMAP item 3 decides its fate",
    "last_seq": "RCN tests observe the generator's sequence counter",
    "reuse_timer_expiry": "damping tests observe when a reuse timer fires",
    "lint_source": "the linter on one source string, how every rule fixture test runs it",
    "parse_jsonl": "reads a JSONL trace file back (docs/OBSERVABILITY.md)",
    "step_series_at": "reads a step series at one instant; series property tests",
    "tolerance_frontier": "inverts the model for a tolerated pulse count (docs/TUTORIAL.md)",
}


def _re_exports(tree: ast.Module, is_package: bool) -> set:
    """Ids of the nodes that only re-export a name: the strings of an
    ``__all__`` list and, in a package ``__init__``, its imports."""
    nodes = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            nodes.update(id(child) for child in ast.walk(node.value))
        elif is_package and isinstance(node, (ast.Import, ast.ImportFrom)):
            nodes.update(id(child) for child in ast.walk(node))
    return nodes


def test_no_function_is_kept_only_for_its_own_test():
    """Every function under ``src/repro`` is named in ``src/``,
    ``bench/``, ``benchmarks/`` or ``examples/``, or listed above. Name-level: a string counts by its
    last dotted component (``getattr`` metrics, ``PHASE_ROOTS``); being
    re-exported (``__all__``, a package ``__init__`` import) is no use."""
    used, defined = set(), set()
    for base in ("src", "bench", "benchmarks", "examples"):
        for path in (REPO_ROOT / base).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            re_exports = _re_exports(tree, path.name == "__init__.py")
            for node in ast.walk(tree):
                if id(node) in re_exports:
                    continue
                if isinstance(node, ast.FunctionDef):
                    if base == "src":
                        defined.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value.rpartition(".")[2])
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif not isinstance(node, ast.arg):  # a parameter is no use
                    for field in ("id", "attr", "arg"):
                        used.add(getattr(node, field, None))
    unreferenced = {n for n in defined - used if not n.startswith("__")}
    # Equality, so the list shrinks with every function that gains a caller.
    assert unreferenced == set(KEPT_WITHOUT_A_CALLER)
