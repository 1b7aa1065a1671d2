"""F9 — Figure 9: message count vs number of pulses.

Shape targets (paper): without damping the count grows ~linearly with n;
with damping it flattens once the ISP suppresses the flapping route.
"""

import pytest
from bench_utils import run_once

from repro.experiments.registry import run_experiment


def test_fig9_message_count(benchmark, record_experiment):
    result = run_once(benchmark, run_experiment, "F9")
    record_experiment(result)
    sweeps = result.data["sweeps"]
    no_damping = sweeps["no_damping_mesh"]
    damping = sweeps["full_damping_mesh"]

    # Linear growth without damping.
    m1 = no_damping.point(1).message_count
    for n in (3, 5, 8, 10):
        assert no_damping.point(n).message_count == pytest.approx(n * m1, rel=0.4)

    # With damping the count is roughly flat for n >= 5 (suppression at
    # the ISP blocks further flaps from entering the network).
    plateau = [damping.point(n).message_count for n in range(5, 11)]
    assert max(plateau) < min(plateau) * 1.2

    # And damping caps the count well below no-damping at large n.
    assert damping.point(10).message_count < no_damping.point(10).message_count / 2
