#!/usr/bin/env python3
"""Compare a fresh ``perf.json`` against the committed baseline.

CI runs the perf microbenchmarks (which write
``benchmarks/results/perf.json``) and then this script, which fails the
job when any benchmark's ``seconds`` regressed beyond the threshold
(default: 1.25x the committed ``perf_baseline.json`` value). A markdown
delta table is printed to stdout and, with ``--summary``, appended to a
file (CI passes ``$GITHUB_STEP_SUMMARY`` so the table lands in the job
summary page).

Parallel benchmarks are only meaningful relative to the core count they
ran on — a ``jobs=2`` sweep recorded on a single-core box is pure fork
overhead, not a measurement. Entries therefore carry the ``cpu_count``
they were recorded on, and entries whose core counts differ between
baseline and current are reported as ``incomparable`` instead of being
allowed to fake a regression (or an improvement).

``--min-speedup NAME=RATIO`` additionally gates a recorded speedup
field: the current entry's ``speedup_vs_sequential`` must be at least
RATIO. The gate is skipped (with an explicit notice) when the current
run's host has fewer than 2 available CPUs, where the requirement is
physically unsatisfiable.

Benchmarks present on only one side are reported as ``new``/``removed``
but never fail the gate; refresh the baseline by copying the current
``perf.json`` over ``perf_baseline.json`` in the PR that legitimately
changes the numbers (or apply the documented override label to skip the
gate entirely — see ``docs/OBSERVABILITY.md``).

Stdlib-only on purpose: the gate must not depend on anything the test
extra does not already install.
"""

import argparse
import json
import sys


def load_payload(path):
    """The full perf JSON document (host + benchmarks)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload.get("benchmarks"), dict):
        raise ValueError(f"{path}: no 'benchmarks' mapping (schema changed?)")
    return payload


def load_benchmarks(path):
    """The ``benchmarks`` mapping of a perf JSON document."""
    return load_payload(path)["benchmarks"]


def _entry_cpu_count(entry, host):
    """The core count an entry was recorded on: the entry's own
    ``cpu_count`` where present (parallel benchmarks), else the
    document-level host record."""
    cpu_count = entry.get("cpu_count")
    if cpu_count is None and isinstance(host, dict):
        cpu_count = host.get("available_cpus", host.get("cpu_count"))
    return cpu_count


def compare(baseline, current, threshold, baseline_host=None, current_host=None):
    """Per-benchmark rows plus the list of regressed names.

    Each row is ``(name, baseline_s, current_s, ratio, status)`` where
    the numeric fields are ``None`` for one-sided entries. Entries that
    declare a ``cpu_count`` are compared only against entries recorded
    on the same core count.
    """
    rows = []
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        base_entry = baseline.get(name, {})
        cur_entry = current.get(name, {})
        base_s = base_entry.get("seconds")
        cur_s = cur_entry.get("seconds")
        if base_s is None:
            rows.append((name, None, cur_s, None, "new"))
            continue
        if cur_s is None:
            rows.append((name, base_s, None, None, "removed"))
            continue
        # Only entries that explicitly tie themselves to a core count
        # (the parallel sweeps) are host-guarded; scalar microbenchmarks
        # compare fine across machines.
        if "cpu_count" in base_entry or "cpu_count" in cur_entry:
            base_cpus = _entry_cpu_count(base_entry, baseline_host)
            cur_cpus = _entry_cpu_count(cur_entry, current_host)
            if base_cpus != cur_cpus:
                rows.append(
                    (
                        name,
                        base_s,
                        cur_s,
                        None,
                        f"incomparable (cpu_count {base_cpus} vs {cur_cpus})",
                    )
                )
                continue
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        if ratio > threshold:
            status = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 / threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append((name, base_s, cur_s, ratio, status))
    return rows, regressions


def check_speedups(current, current_host, requirements):
    """Failures for ``--min-speedup NAME=RATIO`` requirements.

    Returns ``(failures, notices)``: failures fail the gate; notices
    explain skipped or informational outcomes (single-core host,
    missing entry).
    """
    failures = []
    notices = []
    host_cpus = None
    if isinstance(current_host, dict):
        host_cpus = current_host.get("available_cpus", current_host.get("cpu_count"))
    for name, minimum in requirements:
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: no such benchmark in the current perf JSON")
            continue
        cpus = entry.get("cpu_count", host_cpus)
        if cpus is not None and cpus < 2:
            notices.append(
                f"{name}: speedup gate skipped — recorded on a "
                f"{cpus}-CPU host, where parallel >= sequential is "
                f"physically unsatisfiable"
            )
            continue
        speedup = entry.get("speedup_vs_sequential")
        if speedup is None:
            failures.append(f"{name}: entry records no speedup_vs_sequential")
            continue
        if speedup < minimum:
            failures.append(
                f"{name}: speedup_vs_sequential {speedup:.2f} is below the "
                f"required {minimum:.2f} (parallel sweep is not beating "
                f"sequential on a {cpus}-CPU host)"
            )
        else:
            notices.append(
                f"{name}: speedup_vs_sequential {speedup:.2f} "
                f">= {minimum:.2f} on {cpus} CPUs"
            )
    return failures, notices


def _parse_speedup_requirement(spec):
    name, _, minimum = spec.partition("=")
    if not name or not minimum:
        raise ValueError(f"--min-speedup expects NAME=RATIO, got {spec!r}")
    return name, float(minimum)


def render_markdown(rows, threshold):
    """The delta table as GitHub-flavoured markdown."""

    def fmt(value, spec):
        return format(value, spec) if value is not None else "—"

    lines = [
        f"### Perf gate (threshold: {threshold:.2f}x baseline)",
        "",
        "| benchmark | baseline (s) | current (s) | ratio | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for name, base_s, cur_s, ratio, status in rows:
        lines.append(
            f"| {name} | {fmt(base_s, '.6f')} | {fmt(cur_s, '.6f')} "
            f"| {fmt(ratio, '.2f')} | {status} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="benchmarks/results/perf_baseline.json",
        help="committed baseline perf JSON",
    )
    parser.add_argument(
        "--current",
        default="benchmarks/results/perf.json",
        help="freshly measured perf JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when current/baseline exceeds this ratio (default 1.25)",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="NAME=RATIO",
        help=(
            "require the current entry NAME's speedup_vs_sequential to be "
            "at least RATIO (skipped on hosts with < 2 CPUs); repeatable"
        ),
    )
    parser.add_argument(
        "--summary",
        default=None,
        help="append the markdown table to this file (e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    try:
        baseline_payload = load_payload(args.baseline)
        current_payload = load_payload(args.current)
        requirements = [_parse_speedup_requirement(s) for s in args.min_speedup]
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"compare_perf: {exc}", file=sys.stderr)
        return 2

    baseline = baseline_payload["benchmarks"]
    current = current_payload["benchmarks"]
    rows, regressions = compare(
        baseline,
        current,
        args.threshold,
        baseline_host=baseline_payload.get("host"),
        current_host=current_payload.get("host"),
    )
    table = render_markdown(rows, args.threshold)
    print(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(table)

    speedup_failures, notices = check_speedups(
        current, current_payload.get("host"), requirements
    )
    for notice in notices:
        print(f"compare_perf: {notice}")

    failed = False
    if regressions:
        print(
            f"compare_perf: {len(regressions)} benchmark(s) regressed beyond "
            f"{args.threshold:.2f}x: {', '.join(regressions)}",
            file=sys.stderr,
        )
        failed = True
    for failure in speedup_failures:
        print(f"compare_perf: {failure}", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"compare_perf: {len(rows)} benchmark(s) within {args.threshold:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
