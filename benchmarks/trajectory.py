#!/usr/bin/env python3
"""The perf trajectory: the frozen benchmark command, run over whole trees.

    python3 benchmarks/trajectory.py --tree 41=.
    python3 benchmarks/trajectory.py --tree 40=../pr40@f135182 --tree 41=.

Each ``--tree LABEL=PATH[@REV]`` names a checkout (or a ``git archive``
extraction, which has no ``.git``: give its ``@REV``) and the label of
its ``BENCH_<LABEL>.json``. Every round runs, for each workload of
``BENCHMARK.json`` and each tree, that tree's own

    bench/run.py --workload W --seed 42 --seconds 10 --trace 0

and times the host kernel of ``bench.harness.host_calibration`` before
and after it. Each round rotates the workload order and the tree order
by one, so that host drift reaches every tree and workload alike; trees
are the inner loop, so the runs of one workload on different trees sit
next to each other in time. With ``ROUNDS`` = 5 rounds every tree gets
five result lines per workload; the file keeps their median, Q1 and Q3 per
end-to-end metric, the failed share, the host calibration, and the
``.py`` line counts of the tree.

A ``BENCH_*.json`` compares only with files measured in the same
session (``session`` lists its trees): the host drifts by up to 30 %
within minutes (bench/README.md). Standard library plus the frozen
``bench.harness`` kernel; one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.harness import host_calibration  # noqa: E402  (stdlib-only kernel)

SEED = 42
#: The frozen driver form: five rounds of ``--seconds 10`` runs.
ROUNDS = 5
SECONDS = 10.0
COUNTED_DIRS = ("src", "tests", "bench", "benchmarks")
#: A run that takes longer than this is a failed run.
RUN_TIMEOUT_S = 600.0


def parse_tree(spec: str) -> Tuple[str, str, str]:
    """``LABEL=PATH[@REV]`` → ``(label, path, rev)``; without ``@REV``
    the rev comes from the checkout's git (``-dirty`` when it differs)."""
    label, sep, rest = spec.partition("=")
    if not sep or not label.isdigit():
        raise SystemExit(f"--tree wants LABEL=PATH[@REV] with a numeric label, got {spec!r}")
    path, _, rev = rest.partition("@")
    path = os.path.abspath(path)
    if not os.path.isfile(os.path.join(path, "bench", "run.py")):
        raise SystemExit(f"--tree {spec!r}: {path} has no bench/run.py")
    if not rev:
        rev = subprocess.run(
            ["git", "-C", path, "describe", "--always", "--dirty", "--abbrev=7"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    return label, path, rev


def line_counts(tree: str) -> Dict[str, int]:
    """Lines of the ``.py`` files under each counted directory."""
    counts = {}
    for name in COUNTED_DIRS:
        total = 0
        for folder, _, files in os.walk(os.path.join(tree, name)):
            for file_name in files:
                if file_name.endswith(".py"):
                    with open(os.path.join(folder, file_name), "rb") as handle:
                        total += handle.read().count(b"\n")
        counts[name] = total
    return counts


def run_line(tree: str, workload: str) -> Dict[str, Any]:
    """One ``--trace 0`` benchmark run in ``tree``: its last stdout line."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        print(f"  {tree} {workload}: no result line ({exc})", file=sys.stderr)
        return {"attempted": 0, "failed": 0, "metrics": {}, "broken": True}


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(lines: List[Dict[str, Any]], units: Dict[str, str]) -> Dict[str, Any]:
    """One workload of one tree over the session's rounds."""
    summary: Dict[str, Any] = {
        "runs": len(lines),
        "broken_runs": sum(1 for line in lines if line.get("broken")),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
    }
    for name, unit in units.items():
        values = [line["metrics"][name]["value"] for line in lines if name in line["metrics"]]
        if values:
            summary[name] = {**quartiles(values), "unit": unit}
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, help="LABEL=PATH[@REV]")
    args = parser.parse_args(argv)
    trees = [parse_tree(spec) for spec in args.tree]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    workloads = [item["name"] for item in contract["workloads"]]
    units = {item["name"]: item["unit"] for item in contract["end_to_end"]}

    lines: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    calibration: Dict[str, List[float]] = {label: [] for label, _, _ in trees}
    for round_index in range(ROUNDS):
        shift_w = round_index % len(workloads)
        shift_t = round_index % len(trees)
        for workload in workloads[shift_w:] + workloads[:shift_w]:
            for label, path, _ in trees[shift_t:] + trees[:shift_t]:
                before = host_calibration()
                line = run_line(path, workload)
                calibration[label].append((before + host_calibration()) / 2.0)
                lines.setdefault((label, workload), []).append(line)
                wall = line["metrics"].get("wall_s_p50", {}).get("value")
                print(f"round {round_index + 1}/{ROUNDS} {label:>3} {workload:<22} wall_s_p50={wall}")

    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for label, path, rev in trees:
        document = {
            "pr": int(label),
            "rev": rev,
            "host": host,
            "rounds": ROUNDS,
            "seed": SEED,
            "seconds": SECONDS,
            "session": sorted((int(other) for other, _, _ in trees)),
            "lines": line_counts(path),
            "bench.host_calib_s": {**quartiles(calibration[label]), "unit": "s"},
            "workloads": {
                workload: summarize(lines[(label, workload)], units) for workload in workloads
            },
        }
        out = os.path.join(ROOT, f"BENCH_{label}.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
