"""X9 — ablation: inconsistent damping parameters across routers."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_heterogeneous_params(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X9")
    record_experiment(result)
    rows = {(row[0], row[1]): row for row in result.rows}
    # Parameter diversity still produces reuse-timer interactions.
    assert rows[("mixed", 1)][5] > 0
    # RCN removes the reuse-triggered charges in the mixed deployment for
    # a single flap (no suppression at all is intended at n=1).
    assert rows[("mixed+rcn", 1)][5] == 0
    # All variants converge.
    for row in result.rows:
        if row[1] > 0:
            assert row[2] > 0
