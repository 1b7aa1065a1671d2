"""Figures 8 and 9 — the three simulated series behind the paper's
headline figures, run directly, and the measured critical point ``Nh``.

The figures themselves (and Figures 13/14, which add the RCN series) are
table entries in :mod:`repro.experiments.registry`; the repo benchmark
times :func:`run_fig8_9_sweeps`, so it always executes its points.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.base import (
    DEFAULT_SEED,
    RunOptions,
    SweepSeries,
    calculation_series,
    default_pulse_counts,
    run_series,
)
from repro.experiments.registry import FIG8_SERIES


def run_fig8_9_sweeps(
    pulse_counts: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> Dict[str, SweepSeries]:
    """Run the three simulated series; the calculation series is free."""
    counts = list(pulse_counts) if pulse_counts is not None else default_pulse_counts()
    return run_series(FIG8_SERIES, counts, RunOptions(jobs=jobs), seed=seed)


def critical_pulse_count(sweeps: Dict[str, SweepSeries], tolerance: float = 0.15) -> Optional[int]:
    """The measured ``Nh``: smallest n from which the full-damping mesh
    convergence stays within ``tolerance`` (relative) of the calculation."""
    mesh = sweeps["full_damping_mesh"]
    counts = [p.pulses for p in mesh.points]
    tup = sweeps["no_damping_mesh"].mean_warmup
    calc = dict(calculation_series(counts, tup))
    for start_index, n_start in enumerate(counts):
        if n_start == 0:
            continue
        ok = True
        for n in counts[start_index:]:
            expected = calc[n]
            measured = mesh.point(n).convergence_time
            if expected <= 0:
                continue
            if abs(measured - expected) / expected > tolerance:
                ok = False
                break
        if ok:
            return n_start
    return None
