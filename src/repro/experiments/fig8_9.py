"""Figures 8 and 9 — the three simulated series behind the paper's
headline figures, run directly, and the measured critical point ``Nh``:
from ``Nh`` pulses on, the ISP suppresses the flapping route and every
other router's reuse timer expires silently (``PointOutcome.muffled``).

The figures themselves (and Figures 13/14, which add the RCN series) are
table entries in :mod:`repro.experiments.registry`; the repo benchmark
times :func:`run_fig8_9_sweeps`, so it always executes its points.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.base import (  # noqa: F401  (calculation_series: bench/ imports it here)
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


def muffled_from(series: SweepSeries) -> Optional[int]:
    """The smallest ``n >= 1`` from which every point of ``series`` is muffled."""
    last_noisy = max((p.pulses for p in series.points if not p.muffled), default=0)
    return min((p.pulses for p in series.points if p.pulses > last_noisy), default=None)


def critical_pulse_count(sweeps: Dict[str, SweepSeries]) -> Optional[int]:
    """The measured ``Nh``: :func:`muffled_from` the full-damping mesh."""
    return muffled_from(sweeps["full_damping_mesh"])
