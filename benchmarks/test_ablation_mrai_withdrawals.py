"""X6 — ablation: MRAI applied to withdrawals (WRATE) vs immediate."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_mrai_withdrawals(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X6")
    record_experiment(result)
    immediate = [row for row in result.rows if row[0] == "immediate"]
    limited = [row for row in result.rows if row[0] == "rate-limited"]
    # Both variants converge at every pulse count.
    for row in immediate + limited:
        assert row[2] > 0
        assert row[3] > 0
