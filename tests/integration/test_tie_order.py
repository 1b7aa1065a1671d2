"""Tie order is not a parameter: the figures' results survive a shuffle.

The engine fires same-instant events in the order they were scheduled.
These tests run a point in that order and again with the ties shuffled
(:mod:`tests.tie_shuffle`; same-link deliveries keep send order), the
warm-up included, and require the same metrics digest. The mesh runs on
the figures' per-message delivery path. On these jittered links the
only same-instant events are same-link deliveries the FIFO floor put on
one instant, so the shuffle moves nothing; a change that makes a result
depend on tie order fails here. ``benchmarks/test_tie_order.py`` runs
the same oracle on every sweep series of the experiment table.

The last test shows the oracle is not vacuous: on zero-jitter links the
tie order sets the result (``docs/ARCHITECTURE.md``, "Determinism").
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.base import internet100_config, mesh100_config
from repro.net.link import LinkConfig
from tests.tie_shuffle import tie_order_digests, tie_order_failure

CONFIGS = {"mesh100": mesh100_config, "internet100": internet100_config}


@pytest.mark.parametrize("pulses", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_shuffled_ties_give_the_seq_order_digest(name, pulses):
    runs = tie_order_digests(CONFIGS[name](), pulses, seeds=(1,))
    assert not tie_order_failure(runs), tie_order_failure(runs)


def test_the_oracle_bites_on_zero_jitter_links():
    config = replace(mesh100_config(), link=LinkConfig(jitter=0.0))
    seq_order, shuffled = tie_order_digests(config, 1, seeds=(1,))
    assert shuffled.reordered > 0
    assert tie_order_failure([seq_order, shuffled])
    assert shuffled.convergence_time != seq_order.convergence_time
