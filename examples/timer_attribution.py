#!/usr/bin/env python
"""Causal attribution of reuse-timer interactions.

The paper infers secondary charging from penalty traces; this example
uses the library's attribution analysis to establish it *causally*: for
every reuse-timer postponement in a single-pulse episode, find the noisy
reuse expiry (or origin flap) whose update wave caused it, then rank the
reuse events by how many other timers they pushed back — the "after
shocks" of Section 8.

Run:  python examples/timer_attribution.py
"""

from repro.analysis.attribution import analyze_run, suppression_extension_seconds
from repro.experiments.base import mesh100_config
from repro.metrics.report import render_table
from repro.workload.scenarios import run_episode


def main() -> None:
    result = run_episode(mesh100_config(seed=42), pulses=1)
    report = analyze_run(result)

    print("=== single pulse, 100-node mesh, damping everywhere ===")
    print(f"convergence time:        {result.convergence_time:9.1f} s")
    print(f"reuse-timer recharges:   {report.total:9d}")
    print(f"  caused by reuse waves: {report.reuse_caused:9d}")
    print(f"  caused by flaps:       {report.flap_caused:9d}")
    print(f"  ambiguous (mixed):     {report.mixed:9d}")
    print(f"  unattributed:          {report.unattributed:9d}")
    print(f"secondary-charging share: {100 * report.secondary_fraction:7.1f} %")

    extension = 0.0
    for records in result.collector.suppression_records().values():
        extension += suppression_extension_seconds(records, result.config.damping)
    print(f"suppression time added by recharges (network-wide): {extension:,.0f} s")

    print()
    fanout = report.fanout_by_reuse_event()[:10]
    rows = [[f"{time:.1f}", count] for time, count in fanout]
    print(
        render_table(
            ["noisy reuse at (s)", "timers it postponed"],
            rows,
            title="top 'after shock' reuse events",
        )
    )
    print()
    print("Each row is one router reusing a suppressed route; the update")
    print("wave it launches postpones the listed number of other reuse")
    print("timers — the interaction the paper discovered.")


if __name__ == "__main__":
    main()
