"""CSV export for experiment results.

Downstream users plot the paper's figures with their own tools; this
module turns any :class:`~repro.experiments.base.ExperimentResult` into a
CSV file (headline table) plus one CSV per extra series carried in its
``data`` payload when that payload is a recognised series shape.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Iterable, List, Sequence, Union

from repro.experiments.base import ExperimentResult

PathLike = Union[str, pathlib.Path]

#: Per-point columns of a sweep series' CSV: (header, outcome attribute).
_SERIES_COLUMNS = (
    ("pulses", "pulses"),
    ("convergence_time_s", "convergence_time"),
    ("message_count", "message_count"),
    ("suppressions", "suppressions"),
    ("peak_damped_links", "peak_damped_links"),
    ("secondary_charges", "secondary_charges"),
)


def write_csv(path: PathLike, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV file with a header row."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))


def export_result(result: ExperimentResult, directory: PathLike) -> List[pathlib.Path]:
    """Export ``result`` to ``directory``; returns the files written.

    Always writes ``<id>.csv`` with the headline table. Sweep series in
    ``result.data["sweeps"]`` additionally get
    ``<id>_<series-key>.csv`` with per-pulse metrics, and time series
    stored as lists of (time, value) pairs get their own files too.
    """
    directory = pathlib.Path(directory)
    written: List[pathlib.Path] = []

    main = directory / f"{result.experiment_id}.csv"
    write_csv(main, result.headers, result.rows)
    written.append(main)

    for key, series in result.data.get("sweeps", {}).items():
        path = directory / f"{result.experiment_id}_{key}.csv"
        write_csv(
            path,
            [header for header, _ in _SERIES_COLUMNS],
            [[getattr(p, attr) for _, attr in _SERIES_COLUMNS] for p in series.points],
        )
        written.append(path)

    for key, value in result.data.items():
        if _is_time_series(value):
            path = directory / f"{result.experiment_id}_{key}_series.csv"
            write_csv(path, ["time_s", "value"], value)
            written.append(path)
    return written


def _is_time_series(value: object) -> bool:
    if not isinstance(value, list) or not value:
        return False
    first = value[0]
    return (
        isinstance(first, tuple)
        and len(first) == 2
        and isinstance(first[0], (int, float))
        and isinstance(first[1], (int, float))
    )
