"""Internet-scale benchmarks: large-graph build + flap episodes.

The scale tiers measure what the small-figure benchmarks cannot: how
the engine behaves when the topology is 5–50x the paper's largest
graph. Each tier records wall-clock seconds, engine events per second,
and the process's peak RSS into ``perf.json`` (same gate as every other
benchmark, via ``compare_perf.py``); the 1k tier additionally feeds the
CI ``scale-smoke`` memory gate (``compare_mem.py``).

The 1k tier runs on every benchmark invocation. The 5k and 10k tiers
take minutes, so they run only when ``SCALE_FULL=1`` is set — CI's
scale-smoke job runs the 1k tier, the 10k acceptance run is a manual /
nightly concern (see docs/SCALING.md).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import sys

import pytest

from benchmarks.bench_utils import run_once
from repro.experiments.parallel import available_cpus
from repro.experiments.scale import run_scale_episode
from repro.topology.scale import powerlaw_topology

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
PERF_JSON = RESULTS_DIR / "perf.json"
MEM_JSON = RESULTS_DIR / "mem.json"

_PERF = {}

#: Episodes per recorded 1k entry (ROADMAP item 1b: min/median-of-N).
EPISODE_RUNS = 5

_FULL = os.environ.get("SCALE_FULL") == "1"
needs_full = pytest.mark.skipif(
    not _FULL, reason="5k/10k tiers run only with SCALE_FULL=1"
)


def _record(name: str, seconds, **extra) -> None:
    entry = {"seconds": round(float(seconds), 6)}
    entry.update(extra)
    _PERF[name] = entry


@pytest.fixture(scope="module", autouse=True)
def _export_perf_json():
    yield
    if not _PERF:
        return
    # Merge-not-clobber: other benchmark modules export into the same
    # document (see test_perf_microbenchmarks._export_perf_json).
    merged = {}
    if PERF_JSON.exists():
        try:
            merged = json.loads(PERF_JSON.read_text(encoding="utf-8")).get(
                "benchmarks", {}
            )
        except ValueError:
            merged = {}
    merged.update(_PERF)
    payload = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "available_cpus": available_cpus(),
            "platform": sys.platform,
        },
        "benchmarks": dict(sorted(merged.items())),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    PERF_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _episode_entry(result) -> dict:
    return {
        "nodes": result.nodes,
        "edges": result.edges,
        "events": result.events,
        "events_per_sec": round(result.events_per_sec, 1),
        "peak_rss_bytes": result.peak_rss_bytes,
    }


def test_perf_scale_build_1k(benchmark):
    """Generate a 1k-node power-law graph with relationships."""
    topology = run_once(
        benchmark, powerlaw_topology, 1000, seed=3, with_relationships=True
    )
    assert topology.node_count == 1000
    _record("scale_build_1k", benchmark.stats.stats.min)


def test_perf_scale_episode_1k(benchmark):
    """1k-node flap episode (coalesced delivery), the scale-smoke tier.

    Also writes ``mem.json`` — the current-side document for the CI
    memory gate (``compare_mem.py`` vs the committed
    ``mem_baseline.json``).
    """
    result = run_once(benchmark, run_scale_episode, nodes=1000)
    assert result.nodes == 1000
    assert result.suppressions > 0  # damping actually engaged at scale
    # ``seconds`` is the median of EPISODE_RUNS episodes; the counters,
    # the RSS and mem.json stay those of the first, which ran before the
    # process had peaked on an earlier episode's garbage.
    seconds = [result.total_seconds] + [
        run_scale_episode(nodes=1000).total_seconds for _ in range(EPISODE_RUNS - 1)
    ]
    _record(
        "scale_episode_1k",
        statistics.median(seconds),
        runs=EPISODE_RUNS,
        min_seconds=round(min(seconds), 6),
        **_episode_entry(result),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    MEM_JSON.write_text(
        json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@needs_full
def test_perf_scale_episode_5k(benchmark):
    """5k-node flap episode (SCALE_FULL tier)."""
    result = run_once(benchmark, run_scale_episode, nodes=5000)
    assert result.nodes == 5000
    _record("scale_episode_5k", result.total_seconds, **_episode_entry(result))


@needs_full
def test_perf_scale_episode_10k():
    """10k-node flap episode — the acceptance tier (< 2 GB peak RSS)."""
    result = run_scale_episode(nodes=10000)
    assert result.nodes == 10000
    assert result.peak_rss_bytes < 2 * 1024**3, (
        f"10k episode peak RSS {result.peak_rss_bytes / 1024**2:.0f} MB "
        f"breaches the 2 GB acceptance bar"
    )
    _record("scale_episode_10k", result.total_seconds, **_episode_entry(result))
