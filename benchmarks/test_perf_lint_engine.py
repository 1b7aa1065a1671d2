"""Benchmark for the lint engine.

Measures :func:`repro.lint.lint_paths` over the real source tree, cold
(min and median of five runs in one process), and asserts that the five
runs render byte-identical findings JSON: the linter is deterministic
run to run. The timing is merged into ``benchmarks/results/perf.json``
alongside the simulator microbenchmarks so the lint engine's own perf
trajectory is tracked across PRs (no ``bench/`` layer covers it).
"""

import json
import pathlib
import statistics
import time

import pytest

from repro.lint import lint_paths, make_config, render_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
PERF_JSON = RESULTS_DIR / "perf.json"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

_PERF = {}


def _record(name: str, seconds, **extra) -> None:
    entry = {"seconds": round(float(seconds), 6)}
    entry.update(extra)
    _PERF[name] = entry


@pytest.fixture(scope="module", autouse=True)
def _export_perf_json():
    yield
    if not _PERF:
        return
    merged = {}
    if PERF_JSON.exists():
        try:
            merged = json.loads(PERF_JSON.read_text(encoding="utf-8")).get(
                "benchmarks", {}
            )
        except ValueError:
            merged = {}
    merged.update(_PERF)
    payload = json.loads(PERF_JSON.read_text(encoding="utf-8")) if (
        PERF_JSON.exists()
    ) else {"schema": 1}
    payload["benchmarks"] = dict(sorted(merged.items()))
    RESULTS_DIR.mkdir(exist_ok=True)
    PERF_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


#: Cold runs per recorded entry (ROADMAP item 1b: min/median-of-N).
COLD_RUNS = 5


def _config():
    return make_config(passes=("all",))


def _timed_lint():
    start = time.perf_counter()
    report = lint_paths([str(SRC_DIR)], _config())
    return time.perf_counter() - start, report


def test_lint_cold_runs_render_identical_findings():
    """Five cold runs over ``src/``: every one renders the same findings
    JSON, and the median and min wall times are recorded."""
    cold_runs = []
    rendered = set()
    for _ in range(COLD_RUNS):
        seconds, cold = _timed_lint()
        cold_runs.append(seconds)
        assert cold.files_checked > 50
        rendered.add(render_json(cold))
    assert len(rendered) == 1, "lint findings differ between identical runs"
    _record(
        "lint_src_cold_sequential",
        statistics.median(cold_runs),
        files=cold.files_checked,
        runs=COLD_RUNS,
        min_seconds=round(min(cold_runs), 6),
    )
