"""F15 — Figure 15: impact of routing policy (208-node Internet topology).

Shape targets (paper): the no-valley policy reduces false suppression and
moves convergence toward — but not perfectly onto — the intended curve;
without policy the convergence for small n stays far above intended.
"""

from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_fig15_policy_impact(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "F15")
    record_experiment(result)
    with_policy = result.data["sweeps"]["with_policy"]
    no_policy = result.data["sweeps"]["no_policy"]
    calc = result.data["calculation"]

    # Policy reduces false suppression at every pulse count with flaps.
    for n in range(1, 11):
        assert with_policy.point(n).suppressions <= no_policy.point(n).suppressions

    # Below the critical point, no-policy convergence is far above
    # intended while the policy curve sits much closer.
    gap_no_policy = no_policy.point(1).convergence_time - calc[1]
    gap_policy = with_policy.point(1).convergence_time - calc[1]
    assert gap_policy < gap_no_policy

    # Policy also prunes exploration traffic.
    assert with_policy.point(3).message_count < no_policy.point(3).message_count
