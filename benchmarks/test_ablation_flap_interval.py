"""X1 — ablation: flapping-interval sweep (companion tech report)."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_flap_interval(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X1")
    record_experiment(result)
    # At the same pulse count, the intended ISP-side delay shrinks as the
    # interval grows (more decay between flaps).
    intended_at_3 = {
        row[0]: row[5] for row in result.rows if row[1] == 3
    }
    assert intended_at_3[240.0] < intended_at_3[60.0]
