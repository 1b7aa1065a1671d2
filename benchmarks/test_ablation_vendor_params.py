"""X3 — ablation: Cisco vs Juniper default parameters."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_vendor_params(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X3")
    record_experiment(result)
    intended = {(row[0], row[1]): row[5] for row in result.rows}
    # Juniper's higher cut-off (3000) and re-announcement penalty shift
    # the intended delay at the same pulse count relative to Cisco's.
    assert intended[("juniper", 5)] != intended[("cisco", 5)]
    # Both vendors are suppressed at 8 pulses with 60s intervals.
    assert intended[("juniper", 8)] > 0
    assert intended[("cisco", 8)] > 0
