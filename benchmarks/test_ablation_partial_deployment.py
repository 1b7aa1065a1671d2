"""X2 — ablation: partial damping deployment."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_partial_deployment(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X2")
    record_experiment(result)
    suppressions_at_1 = {row[0]: row[4] for row in result.rows if row[1] == 1}
    # Fewer damping routers -> fewer (false) suppressions after one pulse.
    assert suppressions_at_1["25%"] < suppressions_at_1["100%"]
