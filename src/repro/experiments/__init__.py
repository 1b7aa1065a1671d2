"""Experiments — one table entry per table/figure of the paper, plus the
tech-report-style ablations (see :mod:`repro.experiments.registry`).
Running an entry returns an
:class:`~repro.experiments.base.ExperimentResult` whose ``render()``
prints the same rows/series the paper reports; the benchmark harness
under ``benchmarks/`` simply runs the entries.
"""

from repro.experiments.base import (
    ExperimentResult,
    RunOptions,
    SweepSeries,
    default_pulse_counts,
    internet100_config,
    internet208_config,
    mesh100_config,
    run_sweep,
    small_mesh_config,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "RunOptions",
    "SweepSeries",
    "default_pulse_counts",
    "get_experiment",
    "internet100_config",
    "internet208_config",
    "list_experiments",
    "mesh100_config",
    "run_experiment",
    "run_sweep",
    "small_mesh_config",
]
