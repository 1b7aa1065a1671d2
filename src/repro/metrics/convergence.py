"""Convergence bookkeeping and run summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bgp.origin import ORIGIN_NAME
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
    #: Seconds from the final announcement to the ISP's noisy reuse of
    #: the origin's route, and to the last noisy reuse on any other peer
    #: (``None``: no such reuse after the final announcement).
    isp_reuse: Optional[float]
    last_other_noisy_reuse: Optional[float]


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
    reuses = collector.reuse_events()
    noisy = [event for event in reuses if event.noisy]
    last_noisy: Dict[bool, float] = {}  # on the origin's peer? -> seconds
    if final_announcement_time is None:
        convergence = 0.0
    else:
        convergence = collector.convergence_time(final_announcement_time)
        for event in noisy:  # time order: the last of each kind stays
            if event.time > final_announcement_time:
                last_noisy[event.peer == ORIGIN_NAME] = event.time - final_announcement_time
    return ConvergenceSummary(
        pulses=pulses,
        convergence_time=convergence,
        message_count=collector.message_count,
        peak_damped_links=collector.peak_damped_links(),
        total_suppressions=collector.total_suppressions,
        noisy_reuses=len(noisy),
        silent_reuses=len(reuses) - len(noisy),
        secondary_charges=collector.secondary_charge_count(),
        isp_reuse=last_noisy.get(True),
        last_other_noisy_reuse=last_noisy.get(False),
    )
