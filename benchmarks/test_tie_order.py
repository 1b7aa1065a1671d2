"""The tie-order oracle on every sweep series of the experiment table.

Each distinct series configuration of every :class:`Sweep` in
:mod:`repro.experiments.registry` runs at n = 1, 3, 5 in the engine's
seq order and under two tie shuffles (:mod:`tests.tie_shuffle`), each
point built, warmed up and run by ``run_scenario``; every metrics digest
must equal the seq-order one. Tier-1 runs the same oracle on mesh100 and
internet100 only (``tests/integration/test_tie_order.py``).
"""

import pytest

from repro.experiments.base import DEFAULT_SEED, Sweep
from repro.experiments.registry import EXPERIMENTS
from tests.tie_shuffle import tie_order_digests, tie_order_failure


def _distinct_series():
    seen, cases = [], []
    for experiment_id, entry in EXPERIMENTS.items():
        if not isinstance(entry, Sweep):
            continue
        for spec in entry.specs():
            point = (spec.config(seed=DEFAULT_SEED), spec.flap_interval)
            if point not in seen:
                seen.append(point)
                cases.append(pytest.param(*point, id=f"{experiment_id}-{spec.key}"))
    return cases


@pytest.mark.parametrize("pulses", [1, 3, 5])
@pytest.mark.parametrize("config, flap_interval", _distinct_series())
def test_shuffled_ties_give_the_seq_order_digest(config, flap_interval, pulses):
    runs = tie_order_digests(config, pulses, seeds=(1, 2), flap_interval=flap_interval)
    assert not tie_order_failure(runs), tie_order_failure(runs)
