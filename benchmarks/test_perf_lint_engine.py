"""Benchmarks for the incremental lint engine.

Measures :func:`repro.lint.lint_paths` over the real source tree — cold
(min and median of five runs), warm from the content-digest cache, and
warm after a one-file edit — and asserts the engine's two contracts:
the warm run of an unchanged tree is at least 5x faster than the cold
run, and every run produces byte-identical findings JSON. The timings
are merged into ``benchmarks/results/perf.json`` alongside the simulator
microbenchmarks so the lint engine's own perf trajectory is tracked
across PRs (no ``bench/`` layer covers it).
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


def _timed_lint(cache_dir):
    start = time.perf_counter()
    report = lint_paths([str(SRC_DIR)], _config(), cache_dir=str(cache_dir))
    return time.perf_counter() - start, report


def test_lint_cold_vs_warm_cache(tmp_path):
    """Cold populates the cache; warm must short-circuit every file and
    finish at least 5x faster with byte-identical findings."""
    cold_runs = []
    for index in range(COLD_RUNS):
        cache_dir = tmp_path / f"lint_cache_{index}"
        seconds, cold = _timed_lint(cache_dir)
        cold_runs.append(seconds)
        assert cold.files_checked > 50
        assert cold.cache_stats["local_hits"] == 0
        assert cold.cache_stats["local_misses"] == cold.files_checked
    cold_s = statistics.median(cold_runs)

    warm_s, warm = _timed_lint(cache_dir)
    assert warm.cache_stats["local_misses"] == 0
    assert warm.cache_stats["perf_misses"] == 0
    assert warm.cache_stats["local_hits"] == warm.files_checked
    assert render_json(warm) == render_json(cold)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= 5.0, (
        f"warm lint only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )
    _record(
        "lint_src_cold_sequential",
        cold_s,
        files=cold.files_checked,
        runs=COLD_RUNS,
        min_seconds=round(min(cold_runs), 6),
    )
    _record(
        "lint_src_warm_cache",
        warm_s,
        files=warm.files_checked,
        speedup_vs_cold=round(speedup, 1),
    )


def test_warm_cache_after_single_edit_stays_incremental(tmp_path):
    """Editing one file re-lints one file; the report still matches a
    cold run of the same tree (measured on a copied tree so the real
    source is never touched)."""
    import shutil

    tree = tmp_path / "src"
    shutil.copytree(SRC_DIR, tree)
    cache_dir = tmp_path / "lint_cache"

    def run():
        start = time.perf_counter()
        report = lint_paths([str(tree)], _config(), cache_dir=str(cache_dir))
        return time.perf_counter() - start, report

    run()  # populate
    target = tree / "repro" / "core" / "penalty.py"
    target.write_text(target.read_text() + "\n# touched by benchmark\n")
    edit_s, edited = run()
    assert edited.cache_stats["local_misses"] == 1
    fresh = lint_paths([str(tree)], _config())
    assert render_json(edited) == render_json(fresh)
    _record("lint_src_warm_one_edit", edit_s, files=edited.files_checked)
