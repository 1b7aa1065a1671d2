"""Figure 10 — update series and damped-link count for n = 1, 3, 5.

Six panels in the paper: for each pulse count, the number of update
messages observed in 5-second bins (top row) and the number of links
being suppressed over time (bottom row), annotated with the phases —
charging (C), suppression (S), releasing (R), muffling (M), and strong
secondary charging (SC).

The driver runs the three episodes on the standard mesh, produces both
series for each, and classifies the phases with
:func:`repro.core.states.classify_phases`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.states import (
    DampingPhase,
    PhaseInterval,
    classify_phases,
    phase_durations,
    releasing_fraction,
    suppressed_count_function,
)
from repro.experiments.base import (
    DEFAULT_SEED,
    ExperimentResult,
    RunOptions,
    mesh100_config,
)
from repro.metrics.report import render_series
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import FlapRunResult, run_scenario

FIG10_PULSE_COUNTS = (1, 3, 5)


def classify_run(result: FlapRunResult, gap: float = 60.0) -> List[PhaseInterval]:
    """Phase classification of one finished episode."""
    suppressed_at = suppressed_count_function(result.collector.damped_link_deltas())
    return classify_phases(
        update_times=result.collector.update_times,
        flap_times=result.flap_times,
        end_time=result.end_time,
        suppressed_count_at=suppressed_at,
        gap=gap,
    )


def fig10_experiment(
    options: RunOptions = RunOptions(),
    pulse_counts: Sequence[int] = FIG10_PULSE_COUNTS,
    seed: int = DEFAULT_SEED,
    bin_width: float = 5.0,
    results: Optional[Dict[int, FlapRunResult]] = None,
) -> ExperimentResult:
    """Reproduce all panels of Figure 10."""
    if results is None:
        results = {
            n: run_scenario(
                mesh100_config(seed=seed),
                PulseSchedule.regular(n, 60.0),
                check_invariants=options.check_invariants,
            )[1]
            for n in pulse_counts
        }

    rows: List[List[object]] = []
    sections: List[str] = []
    data: Dict[str, object] = {}
    for n in pulse_counts:
        result = results[n]
        update_series = result.collector.update_series(
            bin_width=bin_width, start=0.0, end=result.end_time
        )
        damped_series = result.collector.damped_link_series()
        phases = classify_run(result)
        durations = phase_durations(phases)
        rows.append(
            [
                n,
                round(result.convergence_time, 1),
                result.message_count,
                result.summary.peak_damped_links,
                result.summary.silent_reuses,
                result.summary.noisy_reuses,
                round(durations[DampingPhase.CHARGING], 1),
                round(releasing_fraction(phases), 2),
            ]
        )
        sections.append(
            render_series(
                [(t, float(c)) for t, c in update_series if c > 0] or [(0.0, 0.0)],
                title=f"n={n}: updates per {bin_width:.0f}s bin (non-empty bins)",
            )
        )
        sections.append(
            render_series(
                [(t, float(c)) for t, c in damped_series] or [(0.0, 0.0)],
                title=f"n={n}: damped link count",
            )
        )
        phase_text = ", ".join(
            f"{p.phase.value}[{p.start:.0f}-{p.end:.0f}]" for p in phases
        )
        sections.append(f"n={n} phases: {phase_text}")
        data[f"n{n}"] = {
            "update_series": update_series,
            "damped_series": damped_series,
            "phases": phases,
            "result": result,
        }

    return ExperimentResult(
        experiment_id="F10",
        title="Update Series and Damped Link Count (mesh-100)",
        headers=[
            "pulses",
            "conv_time_s",
            "messages",
            "peak_damped",
            "silent_reuse",
            "noisy_reuse",
            "charging_s",
            "releasing_frac",
        ],
        rows=rows,
        extra_sections=sections,
        data=data,
    )
