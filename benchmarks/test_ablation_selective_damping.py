"""X4 — comparator: selective damping (Mao et al.) vs plain vs RCN."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_selective_damping(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X4")
    record_experiment(result)
    row1 = next(row for row in result.rows if row[0] == 1)
    plain_sec, selective_sec, rcn_sec = row1[4], row1[5], row1[6]
    # The paper's observation: selective damping "does not address the
    # problem of secondary charging" — RCN does.
    assert rcn_sec == 0
    assert selective_sec > 0
    # RCN converges fastest after a single pulse.
    rcn_conv, plain_conv = row1[3], row1[1]
    assert rcn_conv < plain_conv
