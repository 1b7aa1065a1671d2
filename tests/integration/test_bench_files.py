"""Every ``BENCH_<pr>.json`` at the repo root has the shape that
``benchmarks/trajectory.py`` writes.

Only the schema and the frozen run settings (5 rounds of seed 42 at
``--seconds 10``) are checked, never a measured value: those belong to the
host and the session that measured them.
"""

from __future__ import annotations

import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {item["name"]: item["unit"] for item in CONTRACT["end_to_end"]}
WORKLOADS = {item["name"] for item in CONTRACT["workloads"]}
TOP_LEVEL = {
    "pr", "rev", "host", "rounds", "seed", "seconds", "session", "lines",
    "bench.host_calib_s", "workloads",
}


def _check_spread(summary, unit):
    assert set(summary) == {"median", "q1", "q3", "unit"}
    assert summary["unit"] == unit
    assert all(isinstance(summary[key], (int, float)) for key in ("median", "q1", "q3"))
    assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_there_is_a_trajectory():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_matches_schema(path):
    document = json.loads(path.read_text(encoding="utf-8"))
    assert set(document) == TOP_LEVEL
    assert path.name == f"BENCH_{document['pr']}.json"
    assert isinstance(document["rev"], str) and document["rev"]
    assert set(document["host"]) == {"nproc", "python"}
    assert isinstance(document["host"]["nproc"], int)
    assert (document["rounds"], document["seed"], document["seconds"]) == (5, 42, 10.0)
    assert document["pr"] in document["session"]
    assert set(document["lines"]) == {"src", "tests", "bench", "benchmarks"}
    assert all(isinstance(count, int) and count > 0 for count in document["lines"].values())
    _check_spread(document["bench.host_calib_s"], "s")
    assert set(document["workloads"]) == WORKLOADS
    for summary in document["workloads"].values():
        assert set(summary) == {"runs", "broken_runs", "attempted", "failed"} | set(END_TO_END)
        assert summary["runs"] == document["rounds"]
        assert 0 <= summary["failed"] <= summary["attempted"]
        for name, unit in END_TO_END.items():
            _check_spread(summary[name], unit)
