#!/usr/bin/env python
"""Causal attribution of reuse-timer interactions.

The paper infers secondary charging from penalty traces; this example
establishes it *causally* by reading the run's trace DAG: every
reuse-timer postponement in a single-pulse episode is traced back to the
origin flap or reuse expiry its update wave started from, and the reuse
expiries are ranked by how many other timers they pushed back — the
"after shocks" of Section 8.

Run:  python examples/timer_attribution.py
"""

from repro.analysis.causality import ROOT_KINDS, analyze_trace, causal_chain
from repro.core.damping import charging_only_reuse_time
from repro.experiments.base import mesh100_config
from repro.metrics.report import render_table
from repro.trace import Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import run_scenario


def main() -> None:
    tracer = Tracer()
    _scenario, result = run_scenario(
        mesh100_config(seed=42), PulseSchedule.regular(1, 60.0), tracer=tracer
    )
    report = analyze_trace(tracer.records)
    postponed = report.postponements_by_class

    print("=== single pulse, 100-node mesh, damping everywhere ===")
    print(f"convergence time:          {result.convergence_time:9.1f} s")
    print(f"reuse-timer postponements: {report.postponements_total:9d}")
    print(f"  rooted in reuse expiries:{postponed['reuse']:9d}")
    print(f"  rooted in origin flaps:  {postponed['flap']:9d}")
    print(f"  unattributed:            {postponed['unattributed']:9d}")
    print(f"secondary-charging share:  {100 * report.secondary_fraction:9.1f} %")

    extension = 0.0
    for records in result.collector.suppression_records().values():
        for record in records:
            if record.ended is not None:
                baseline = charging_only_reuse_time(record, result.config.damping)
                extension += max(0.0, record.ended - baseline)
    print(f"suppression time added by recharges (network-wide): {extension:,.0f} s")

    print()
    rows = [
        [f"{shock.time:.1f}", shock.router, shock.postponements]
        for shock in report.after_shocks[:10]
    ]
    print(
        render_table(
            ["reuse at (s)", "router", "timers it postponed"],
            rows,
            title="top 'after shock' reuse events",
        )
    )

    # Walk one postponement back to the reuse expiry that launched it.
    top = report.after_shocks[0]
    for record in tracer.records:
        if record.kind != "reuse_postponed":
            continue
        chain = causal_chain(tracer.records, record.id)
        roots = [i for i, step in enumerate(chain) if step.kind in ROOT_KINDS]
        wave = chain[roots[-1]:]
        if (wave[0].time, wave[0].node) == (top.time, top.router):
            break
    print()
    print("one postponement it caused, edge by edge:")
    print("  " + " -> ".join(f"{step.kind}@{step.node}" for step in wave))
    print()
    print("Each row is one router reusing a suppressed route; the update")
    print("wave it launches postpones the listed number of other reuse")
    print("timers — the interaction the paper discovered.")


if __name__ == "__main__":
    main()
