"""X10 — ablation: ISP placement (hub vs stub attachment point)."""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_ablation_isp_placement(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "X10")
    record_experiment(result)
    hub = result.data["sweeps"]["hub"]
    stub = result.data["sweeps"]["stub"]
    # Both attachments converge at every pulse count with flaps.
    for series in (hub, stub):
        for point in series.points:
            if point.pulses > 0:
                assert point.convergence_time > 0
                assert point.message_count > 0
    # The hub ISP has far higher degree than the stub by construction.
    hub_degree = next(row[1] for row in result.rows if row[0] == "hub")
    stub_degree = next(row[1] for row in result.rows if row[0] == "stub")
    assert hub_degree >= 3 * stub_degree
