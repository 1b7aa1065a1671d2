"""Plain-text rendering of tables and series for the benchmark harness.

Every benchmark prints the same rows/series the paper's tables and
figures report; these helpers keep the formatting consistent and
dependency-free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an ASCII table with right-aligned numeric-ish columns."""
    columns = [str(h) for h in headers]
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(" | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def render_series(
    series: Sequence[Tuple[float, float]],
    title: Optional[str] = None,
    width: int = 50,
    max_points: int = 40,
) -> str:
    """Render a (time, value) series as a labelled ASCII bar chart.

    Long series are downsampled by max-pooling so bursts stay visible.
    """
    if not series:
        return f"{title or 'series'}: (empty)"
    points = _downsample(series, max_points)
    peak = max(v for _, v in points)
    scale = (width / peak) if peak > 0 else 0.0
    lines: List[str] = []
    if title:
        lines.append(title)
    for time, value in points:
        bar = "#" * int(round(value * scale))
        lines.append(f"{time:>10.1f}s |{bar:<{width}}| {value:g}")
    return "\n".join(lines)


def _downsample(
    series: Sequence[Tuple[float, float]], max_points: int
) -> List[Tuple[float, float]]:
    if len(series) <= max_points:
        return list(series)
    chunk = len(series) / max_points
    result: List[Tuple[float, float]] = []
    for i in range(max_points):
        lo = int(i * chunk)
        hi = max(lo + 1, int((i + 1) * chunk))
        window = series[lo:hi]
        time = window[0][0]
        value = max(v for _, v in window)
        result.append((time, value))
    return result
