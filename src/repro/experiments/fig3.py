"""Figure 3 — the penalty value's evolution under a few route flaps.

The paper's Figure 3 plots, with Cisco default parameters, the penalty
at one router responding to a handful of flaps over ~2640 seconds: each
withdrawal jumps the penalty by 1000, re-announcements add nothing, the
value decays exponentially between events, the route is suppressed when
the penalty crosses 2000 and reused when it falls below 750.

This driver reproduces the curve analytically from :class:`PenaltyState`
(no network needed — Figure 3 illustrates the single-router mechanism).
"""

from __future__ import annotations

from typing import List

from repro.core.intended import FLAP_KINDS, IntendedBehaviorModel, regular_pulse_train
from repro.core.params import CISCO_DEFAULTS, DampingParams
from repro.core.penalty import PenaltyState
from repro.experiments.base import ExperimentResult
from repro.metrics.report import render_series

#: Figure 3's x-axis runs 0..2640 s with ticks every 240 s.
FIG3_END = 2640.0
FIG3_SAMPLE_STEP = 240.0
FIG3_PULSES = 3
FIG3_FLAP_INTERVAL = 120.0


def fig3_experiment(
    params: DampingParams = CISCO_DEFAULTS,
    pulses: int = FIG3_PULSES,
    flap_interval: float = FIG3_FLAP_INTERVAL,
) -> ExperimentResult:
    """Drive a :class:`PenaltyState` with a flap train and sample it."""
    state = PenaltyState(params)
    events = regular_pulse_train(pulses, flap_interval)
    for time, status in events:
        state.charge(time, FLAP_KINDS[status])
    samples = state.sample_curve(0.0, FIG3_END, FIG3_SAMPLE_STEP)

    model = IntendedBehaviorModel(params, flap_interval=flap_interval, tup=0.0)
    trajectory = model.penalty_trajectory(events)
    peak = max(p for _, p, _ in trajectory)
    suppressed_at = next((t for t, _, s in trajectory if s), None)
    final_time, final_penalty, suppressed = trajectory[-1]
    reuse_at = (
        final_time + params.reuse_delay(final_penalty) if suppressed else None
    )

    rows: List[List[object]] = [[t, round(v, 1)] for t, v in samples]
    chart = render_series(
        [(t, v) for t, v in samples],
        title=(
            f"penalty over time (cutoff={params.cutoff_threshold:.0f}, "
            f"reuse={params.reuse_threshold:.0f})"
        ),
    )
    notes = [f"peak penalty {peak:.0f} after {pulses} pulses"]
    if suppressed_at is not None:
        notes.append(f"suppression triggered at t={suppressed_at:.0f}s")
    if reuse_at is not None:
        notes.append(f"route reused at t={reuse_at:.0f}s (penalty decayed to reuse threshold)")
    return ExperimentResult(
        experiment_id="F3",
        title="Damping Penalty vs Time (Cisco defaults)",
        headers=["time_s", "penalty"],
        rows=rows,
        extra_sections=[chart],
        notes=notes,
        data={
            "samples": samples,
            "trajectory": trajectory,
            "suppressed_at": suppressed_at,
            "reuse_at": reuse_at,
        },
    )
