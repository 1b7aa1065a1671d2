"""Shared helpers for the benchmark harness.

``test_experiments.py`` reproduces every registered table and figure:
it runs each experiment under pytest-benchmark timing (one round — these
are simulations, not micro-benchmarks), prints the same rows/series the
paper reports, and saves the rendered output under
``benchmarks/results/`` so the artefacts survive pytest's output capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_experiment():
    """Returns a function that renders, prints, and persists a result."""

    def _record(result) -> None:  # noqa: ANN001 - ExperimentResult
        rendered = result.render()
        print()
        print(rendered)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(rendered + "\n", encoding="utf-8")

    return _record


