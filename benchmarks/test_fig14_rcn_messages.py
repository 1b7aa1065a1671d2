"""F14 — Figure 14: message count with RCN-enhanced damping.

Shape targets (paper): RCN still caps the message count at large n, and
produces somewhat more messages than plain damping (suppression happens
exactly at the configured pulse count instead of early false suppression).
"""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_fig14_rcn_messages(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "F14")
    record_experiment(result)
    sweeps = result.data["sweeps"]
    rcn = sweeps["damping_rcn"]
    plain = sweeps["full_damping_mesh"]
    no_damping = sweeps["no_damping_mesh"]

    # RCN message count flattens at large n (capped by ISP suppression).
    plateau = [rcn.point(n).message_count for n in range(5, 11)]
    assert max(plateau) < min(plateau) * 1.2

    # More messages than plain damping at large n, fewer than no damping.
    for n in (8, 10):
        assert rcn.point(n).message_count > plain.point(n).message_count
        assert rcn.point(n).message_count < no_damping.point(n).message_count
