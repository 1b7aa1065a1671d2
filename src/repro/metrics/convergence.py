"""Convergence bookkeeping and run summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.collector import MetricsCollector


@dataclass(frozen=True)
class ConvergenceSummary:
    """Headline numbers for one simulated flapping episode."""

    pulses: int
    convergence_time: float
    message_count: int
    peak_damped_links: int
    total_suppressions: int
    noisy_reuses: int
    silent_reuses: int
    secondary_charges: int


def summarize_convergence(
    collector: MetricsCollector,
    pulses: int,
    final_announcement_time: Optional[float],
) -> ConvergenceSummary:
    """Build a :class:`ConvergenceSummary` from a finished run.

    ``final_announcement_time`` is the origin's last 'up' event — the
    zero of the paper's convergence clock. ``None`` (no pulses were sent)
    yields zero convergence time.
    """
    if final_announcement_time is None:
        convergence = 0.0
    else:
        convergence = collector.convergence_time(final_announcement_time)
    return ConvergenceSummary(
        pulses=pulses,
        convergence_time=convergence,
        message_count=collector.message_count,
        peak_damped_links=collector.peak_damped_links(),
        total_suppressions=collector.total_suppressions,
        noisy_reuses=collector.noisy_reuse_count(),
        silent_reuses=collector.silent_reuse_count(),
        secondary_charges=collector.secondary_charge_count(),
    )
