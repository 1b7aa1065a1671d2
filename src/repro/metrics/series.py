"""Time-series utilities for figure reproduction.

The paper's Figure 10 plots update counts in 5-second bins and the
number-of-links-being-suppressed step function; these helpers turn raw
event timestamps and ±1 deltas into those series.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

from repro.errors import check_number


def bin_counts(
    times: Sequence[float],
    bin_width: float,
    start: float = 0.0,
    end: float = None,  # type: ignore[assignment]
) -> List[Tuple[float, int]]:
    """Count events per ``bin_width``-second bin over ``[start, end)``.

    Returns ``(bin_start, count)`` for every bin, including empty ones,
    so the series plots with a continuous x-axis.
    """
    check_number("bin_width", bin_width, gt=0)
    if end is None:
        end = max(times) + bin_width if times else start + bin_width
    if end <= start:
        return []
    bin_count = int((end - start) / bin_width) + 1
    counts = [0] * bin_count
    for t in times:
        if t < start or t >= start + bin_count * bin_width:
            continue
        counts[int((t - start) / bin_width)] += 1
    return [(start + i * bin_width, counts[i]) for i in range(bin_count)]


def to_step_series(
    deltas: Sequence[Tuple[float, int]], initial: int = 0
) -> List[Tuple[float, int]]:
    """Cumulative step function from time-ordered ``(time, delta)`` pairs."""
    series: List[Tuple[float, int]] = []
    running = initial
    for time, delta in deltas:
        running += delta
        if series and abs(series[-1][0] - time) < 1e-12:
            series[-1] = (time, running)
        else:
            series.append((time, running))
    return series


def step_series_at(series: Sequence[Tuple[float, int]], time: float, initial: int = 0) -> int:
    """Value of a step series at ``time`` (``initial`` before the first step)."""
    times = [t for t, _ in series]
    idx = bisect.bisect_right(times, time) - 1
    if idx < 0:
        return initial
    return series[idx][1]
