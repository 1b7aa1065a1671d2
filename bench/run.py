#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 bench/run.py                       # every workload, both passes
    python3 bench/run.py --workload NAME       # one workload, both passes
    python3 bench/run.py --selfcheck           # the suite twice, compared
    python3 bench/run.py --pin                 # rewrite bench/expected/
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the one the benchmark driver uses: it prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# The script's own directory would put bench/trace.py in front of the
# standard library's ``trace``; the benchmark is imported as a package
# from the checkout's root, the program from its src/ directory.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != BENCH_DIR]
for _entry in (ROOT, SRC):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: Fresh child processes per run; ``setup_s`` is the median over them.
CHILDREN = 3
#: No child may outlive this (the driver allows a run 180 s in all).
CHILD_TIMEOUT_S = 170.0
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Tolerance on the pinned ``fidelity_rel_err`` (ISSUE: any increase > 1e-9).
FIDELITY_SLACK = 1e-9


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_expected(workload: str) -> Dict[str, Any]:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def spawn_child(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Run one measuring child to completion and parse its report."""
    env = dict(os.environ)
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "1" if traced else "0",
        "--spawned-at",
        repr(time.monotonic()),
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# checking and aggregation
# ----------------------------------------------------------------------

_PINNED_FIELDS = ("digest", "updates", "suppressions", "convergence_time")


def _differences(got: Dict[str, Any], want: Dict[str, Any], where: str = "") -> List[str]:
    """The entries of ``want`` that ``got`` does not reproduce."""
    faults = []
    for key, value in want.items():
        if isinstance(value, dict):
            faults.extend(_differences(got.get(key, {}), value, f"{where}{key}: "))
        elif got.get(key) != value:
            faults.append(f"{where}{key} {got.get(key)!r} != {value!r}")
    return faults


def check_samples(
    workload: str, seed: int, samples: List[Dict[str, Any]], expected: Dict[str, Any]
) -> List[str]:
    """Mark every sample ``ok`` or not; returns the reasons for failures.

    At the reference seed each sample must equal the pinned operation of
    its kind; at any other seed it must equal the first sample of its
    kind (operations repeat within a child and across children).
    """
    pinned = expected["operations"] if seed == expected["seed"] else {}
    first: Dict[str, Dict[str, Any]] = {}
    reasons = []
    for sample in samples:
        faults = []
        if "error" in sample:
            faults.append(sample["error"])
        else:
            faults.extend(sample["problems"])
            want = pinned.get(sample["key"]) or first.setdefault(sample["key"], sample)
            for field in _PINNED_FIELDS:
                if sample[field] != want[field]:
                    faults.append(f"{field} {sample[field]!r} != {want[field]!r}")
            if pinned:
                fidelity, bound = sample["fidelity_rel_err"], want["fidelity_rel_err"]
                if fidelity is not None and fidelity > bound + FIDELITY_SLACK:
                    faults.append(f"fidelity_rel_err {fidelity!r} > pinned {bound!r}")
                faults.extend(_differences(sample["extra"], want["extra"]))
        sample["ok"] = not faults
        reasons.extend(f"{workload} op {sample['index']}: {fault}" for fault in faults)
    return reasons


def end_to_end(
    samples: List[Dict[str, Any]], reports: List[Dict[str, Any]], expected: Dict[str, Any]
) -> Dict[str, float]:
    """The gated metrics of one run, from the pooled samples of its children.

    ``wall_s_p50`` is taken at the size of the pinned reference operation:
    each sample's wall is scaled by (reference update count of its kind /
    its own update count). The factor is exactly 1 at the reference seed;
    at other seeds it removes the difference in simulated work between
    inputs (the damped dynamics are chaotic: on the 1k graph the update
    count moves +-15% from seed to seed), which is not host speed.
    """
    reference = {key: op["updates"] for key, op in expected["operations"].items()}
    timed = [s for s in samples if "error" not in s and s["updates"] > 0]
    scaled = [s["wall_s"] * reference[s["key"]] / s["updates"] for s in timed]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s_p50": statistics.median(scaled) if scaled else float("nan"),
        "updates_per_s": (
            sum(s["updates"] for s in timed) / sum(s["wall_s"] for s in timed)
            if timed
            else float("nan")
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def _checked(
    workload: str, seed: int, samples: List[Dict[str, Any]], calibration: List[float]
) -> Dict[str, Any]:
    """What both passes report: the samples, checked against the pins."""
    reasons = check_samples(workload, seed, samples, load_expected(workload))
    return {
        "workload": workload,
        "seed": seed,
        "samples": samples,
        "reasons": reasons,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s["ok"]),
        "host_calib_s": calibration,
    }


def run_untraced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced run: CHILDREN fresh processes share ``seconds``; the
    host kernel is timed before and after them."""
    from bench.harness import host_calibration

    calibration = [host_calibration()]
    reports = [
        spawn_child(workload, seed, seconds / CHILDREN, traced=False)
        for _ in range(CHILDREN)
    ]
    calibration.append(host_calibration())
    samples = [sample for report in reports for sample in report["samples"]]
    result = _checked(workload, seed, samples, calibration)
    result["metrics"] = end_to_end(samples, reports, load_expected(workload))
    result["fidelity_rel_err"] = max(
        (s["fidelity_rel_err"] for s in samples if s.get("fidelity_rel_err") is not None),
        default=None,
    )
    return result


def run_traced(workload: str, seed: int) -> Dict[str, Any]:
    """The per-layer pass of one workload, in one fresh child."""
    from bench.harness import host_calibration

    calibration = [host_calibration()]
    report = spawn_child(workload, seed, 0.0, traced=True)
    calibration.append(host_calibration())
    result = _checked(workload, seed, report["reference"] + report["traced"], calibration)
    result["metrics"] = {**report["metrics"], "bench.host_calib_s": statistics.mean(calibration)}
    result["trace_file"] = os.path.relpath(report["trace_file"], ROOT)
    return result


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def driver_line(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> str:
    """The one-line JSON result of the driver's contract."""
    metrics = {
        item["name"]: {"value": result["metrics"][item["name"]], "unit": item["unit"]}
        for item in declared
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def print_untraced(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    walls = [s["wall_s"] for s in result["samples"] if "wall_s" in s]
    q1, q2, q3 = _quartiles(walls)
    print(f"\n== {result['workload']}  (seed {result['seed']}, tracing off)")
    for item in contract["end_to_end"]:
        value = result["metrics"][item["name"]]
        print(f"  {item['name']:<16} {value:>14.6g} {item['unit']}")
    print(
        f"  raw wall of one operation: n={len(walls)} min={min(walls):.4f} "
        f"q1={q1:.4f} median={q2:.4f} q3={q3:.4f} max={max(walls):.4f} s"
    )
    share = result["failed"] / result["attempted"]
    print(f"  failed_share     {share:>14.6g} ratio  ({result['failed']}/{result['attempted']})")
    if result["fidelity_rel_err"] is None:
        print("  fidelity_rel_err: no closed-form reference (unvalidated above 208 nodes)")
    else:
        print(f"  fidelity_rel_err {result['fidelity_rel_err']:>14.6g} ratio")
    before, after = result["host_calib_s"]
    print(f"  bench.host_calib_s before/after: {before:.4f} / {after:.4f} s")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")


def print_traced(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']}  (seed {result['seed']}, traced pass)")
    for item in contract["per_layer"]:
        value = result["metrics"][item["name"]]
        print(f"  {item['name']:<48} {value:>14.6g} {item['unit']}")
    print(f"  trace file: {result['trace_file']}")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------


def selfcheck(workloads: List[str], seed: int, seconds: float, contract: Dict[str, Any]) -> int:
    """Two full untraced suites on the same tree must agree: timings
    within each metric's own bound, everything simulated exactly."""
    os.makedirs(OUT_DIR, exist_ok=True)
    kept = ("metrics", "attempted", "failed", "fidelity_rel_err", "host_calib_s")
    suites = []
    for attempt in (1, 2):
        suite = {name: run_untraced(name, seed, seconds) for name in workloads}
        suites.append(suite)
        with open(os.path.join(OUT_DIR, f"selfcheck-{attempt}.json"), "w") as handle:
            json.dump(
                {name: {key: run[key] for key in kept} for name, run in suite.items()},
                handle,
                indent=1,
            )
    bad = 0
    print(f"{'workload':<22} {'metric':<18} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
    for name in workloads:
        first, second = suites[0][name], suites[1][name]
        for item in contract["end_to_end"]:
            a, b = first["metrics"][item["name"]], second["metrics"][item["name"]]
            diff = abs(b - a) / a
            agree = diff <= item["bound"]
            bad += not agree
            print(
                f"{name:<22} {item['name']:<18} {a:>14.6g} {b:>14.6g} {diff:>7.1%} "
                f"{item['bound']:>6.0%}{'' if agree else '  DISAGREE'}"
            )
        # Per operation kind, because a short run need not reach every kind.
        kinds = [
            {s["key"]: (s["digest"], s["fidelity_rel_err"]) for s in run["samples"] if "key" in s}
            for run in (first, second)
        ]
        common = sorted(kinds[0].keys() & kinds[1].keys())
        repeats = all(kinds[0][key] == kinds[1][key] for key in common)
        clean = first["failed"] == 0 and second["failed"] == 0
        bad += (not repeats) + (not clean)
        print(
            f"{name:<22} {'failed':<18} {first['failed']:>14} {second['failed']:>14}"
            f"{'' if clean else '  DISAGREE'}"
        )
        print(
            f"{name:<22} {'digests, fidelity':<18} {len(common):>8} kinds "
            f"{'same' if repeats else 'differ':>14}{'' if repeats else '  DISAGREE'}"
        )
    print(f"selfcheck: {'FAILED' if bad else 'ok'} (result sets in {os.path.relpath(OUT_DIR, ROOT)}/)")
    return 1 if bad else 0


def pin(workloads: List[str], seconds: float) -> int:
    """Rewrite bench/expected/ from a run at the reference seed."""
    from bench.workloads import REFERENCE_SEED

    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in workloads:
        report = spawn_child(name, REFERENCE_SEED, seconds / CHILDREN, traced=False)
        operations: Dict[str, Any] = {}
        for sample in report["samples"]:
            if "error" in sample or sample["problems"]:
                raise RuntimeError(f"{name}: refusing to pin a failed sample: {sample}")
            operations.setdefault(
                sample["key"],
                {field: sample[field] for field in _PINNED_FIELDS + ("fidelity_rel_err", "extra")},
            )
        path = os.path.join(EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": name, "seed": REFERENCE_SEED, "operations": operations},
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"pinned {len(operations)} operation kind(s) in {os.path.relpath(path, ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    seconds = float(contract["run_seconds"]) if args.seconds is None else args.seconds

    if args.child:
        from bench.harness import child_main

        return child_main(
            args.workload, args.seed, seconds, bool(args.trace), args.spawned_at, OUT_DIR
        )
    if args.pin:
        return pin(selected, seconds)
    if args.selfcheck:
        return selfcheck(selected, args.seed, seconds, contract)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.trace:
            print(driver_line(run_traced(args.workload, args.seed), contract["per_layer"]))
        else:
            print(driver_line(run_untraced(args.workload, args.seed, seconds), contract["end_to_end"]))
        return 0

    failed = 0
    for name in selected:
        result = run_untraced(name, args.seed, seconds)
        print_untraced(result, contract)
        traced = run_traced(name, args.seed)
        print_traced(traced, contract)
        failed += result["failed"] + traced["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
