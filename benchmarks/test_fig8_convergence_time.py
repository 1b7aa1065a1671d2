"""F8 — Figure 8: convergence time vs number of pulses (four series).

Shape targets (paper): no-damping stays near zero; full damping greatly
exceeds the calculation for small n; past the critical point Nh the
simulated mesh curve matches the calculation; the Internet-derived curve
shows the same trend.
"""

import pytest
from bench_utils import run_once

from repro.experiments.fig8_9 import critical_pulse_count
from repro.experiments.registry import run_experiment


def test_fig8_convergence_time(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "F8")
    record_experiment(result)
    sweeps = result.data["sweeps"]
    calc = result.data["calculation"]

    mesh = sweeps["full_damping_mesh"]
    internet = sweeps["full_damping_internet"]
    no_damping = sweeps["no_damping_mesh"]

    # No damping: short convergence at every pulse count.
    for point in no_damping.points:
        assert point.convergence_time < 300.0

    # Small n: measured far above intended.
    assert mesh.point(1).convergence_time > 5 * max(calc[1], 1.0)
    assert internet.point(1).convergence_time > 5 * max(calc[1], 1.0)

    # Past the critical point: measured matches intended.
    nh = critical_pulse_count(sweeps)
    assert nh is not None and nh <= 6
    for n in range(nh, 11):
        assert mesh.point(n).convergence_time == pytest.approx(calc[n], rel=0.15)
