"""F13 — Figure 13: convergence time with RCN-enhanced damping.

Shape target (paper): the RCN series closely matches the calculated
(intended) curve at every pulse count — no extra delay for small n.
"""

import pytest
from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_fig13_rcn_convergence(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "F13")
    record_experiment(result)
    rcn = result.data["sweeps"]["damping_rcn"]
    plain = result.data["sweeps"]["full_damping_mesh"]
    calc = result.data["calculation"]

    # Where suppression is intended (n >= 3) RCN tracks the calculation.
    for n in range(3, 11):
        assert rcn.point(n).convergence_time == pytest.approx(calc[n], rel=0.15)

    # Where it is not (n = 1, 2), RCN converges like plain BGP.
    for n in (1, 2):
        assert rcn.point(n).convergence_time < 300.0
        assert rcn.point(n).suppressions == 0

    # And RCN beats plain damping dramatically below the critical point.
    assert plain.point(1).convergence_time > 5 * rcn.point(1).convergence_time
