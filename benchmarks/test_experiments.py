"""Every registered experiment on its full grid: run it once under
benchmark timing, write ``results/<id>.txt``, and check its rows of the
claims table (:mod:`repro.experiments.claims`)."""

import pytest
from benchmarks.bench_utils import run_once

from repro.experiments.claims import claims_for
from repro.experiments.registry import list_experiments, run_experiment


@pytest.mark.parametrize("experiment_id", list_experiments())
def test_experiment(benchmark, record_experiment, experiment_id):
    result = run_once(benchmark, run_experiment, experiment_id)
    record_experiment(result)
    failures = [claim.check(result) for claim in claims_for(experiment_id)]
    assert not any(failures), "\n".join(filter(None, failures))
