"""Tie order as an oracle: run the engine with same-instant events shuffled.

The engine fires same-instant events in ``seq`` order, the order they
were scheduled. Nothing in the model says that order is right, so a
result must not depend on it. :class:`TieShuffle` stands in for the
``heapq`` module the engine calls (``repro.sim.engine.heapq``) and
re-keys every pushed entry from ``(time, seq, event)`` to
``(time, (rank, seq), event)``, ``rank`` drawn from its own
``random.Random(seed)``. The engine needs no option for it: its time
checks run before the push, and the loop reads only ``entry[0]`` and
``entry[2]``.

One thing is kept: every delivery event of one link direction at one
instant shares one rank, so a link still delivers in send order on both
delivery paths (per-message events and the per-direction queue).
Shuffling those would only test a broken link.

:func:`tie_order_digests` is the oracle: the metrics digest of one point
(warm-up included) in seq order and under each shuffle seed; they must
be equal. Import it from ``tests`` or ``benchmarks``::

    with TieShuffle(seed=1) as shuffle:
        scenario, result = run_scenario(config, schedule)
    shuffle.reordered   # events that fired after a later-scheduled tie
"""

from __future__ import annotations

import functools
import heapq
import random
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import repro.sim.engine as engine_module
from repro.metrics.digest import run_digest
from repro.net.link import Link, _DeliveryBatch
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig, run_scenario


class TieShuffle:
    """A ``heapq`` stand-in for the engine that shuffles same-instant events.

    Use it as a context manager around everything a run builds: an
    engine must not hold seq-keyed and rank-keyed entries at once.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        #: ``(time, link, dst)`` → the rank that direction's deliveries
        #: at ``time`` share.
        self._direction_ranks: Dict[Hashable, float] = {}
        self._instant = None
        self._latest_seq = -1
        #: Live events that fired after a same-instant event scheduled
        #: later than they were: how many the shuffle moved against seq.
        self.reordered = 0
        self._saved = None

    def __enter__(self) -> "TieShuffle":
        self._saved = engine_module.heapq
        engine_module.heapq = self
        return self

    def __exit__(self, *exc_info) -> None:
        engine_module.heapq = self._saved

    def _rank(self, time: float, event: engine_module.ScheduledEvent) -> float:
        direction = _link_direction(event.callback)
        if direction is None:
            return self._rng.random()
        key = (time, *direction)
        rank = self._direction_ranks.get(key)
        if rank is None:
            rank = self._direction_ranks[key] = self._rng.random()
        return rank

    def heappush(self, heap: list, entry: tuple) -> None:
        time, seq, event = entry
        heapq.heappush(heap, (time, (self._rank(time, event), seq), event))

    def heappop(self, heap: list) -> tuple:
        entry = heapq.heappop(heap)
        time, (_, seq), event = entry
        if not event.cancelled:
            if time != self._instant:
                self._instant, self._latest_seq = time, seq
            elif seq < self._latest_seq:
                self.reordered += 1
            else:
                self._latest_seq = seq
        return entry


def _link_direction(callback) -> Optional[Tuple[Link, str]]:
    """``(link, dst)`` when ``callback`` delivers on a link, else ``None``."""
    if isinstance(callback, functools.partial):  # one event per message
        link = getattr(callback.func, "__self__", None)
        return (link, callback.args[0].dst) if isinstance(link, Link) else None
    batch = getattr(callback, "__self__", None)  # a direction's delivery queue
    return (batch._link, batch.dst) if isinstance(batch, _DeliveryBatch) else None


class TieOrderRun(NamedTuple):
    """One run of a point: its metrics digest and convergence time T."""

    seed: Optional[int]  # ``None`` for seq order
    digest: str
    convergence_time: float
    reordered: int


def tie_order_digests(
    config: ScenarioConfig,
    pulses: int,
    seeds: Sequence[int],
    flap_interval: float = 60.0,
) -> List[TieOrderRun]:
    """Build, warm up and run one point in seq order, then once under
    ``TieShuffle(seed)`` for each of ``seeds``."""
    schedule = PulseSchedule.regular(pulses, flap_interval)
    _, result = run_scenario(config, schedule)
    runs = [TieOrderRun(None, run_digest(result.collector), result.convergence_time, 0)]
    for seed in seeds:
        with TieShuffle(seed) as shuffle:
            _, result = run_scenario(config, schedule)
        runs.append(
            TieOrderRun(
                seed,
                run_digest(result.collector),
                result.convergence_time,
                shuffle.reordered,
            )
        )
    return runs


def tie_order_failure(runs: Sequence[TieOrderRun]) -> str:
    """Empty when every run has the seq-order digest, else a report that
    names each differing shuffle seed, its T and how many events it
    reordered."""
    reference = runs[0]
    lines = [
        f"shuffle seed {run.seed}: T {run.convergence_time:.2f} s against "
        f"{reference.convergence_time:.2f} s in seq order, "
        f"{run.reordered} events reordered"
        for run in runs[1:]
        if run.digest != reference.digest
    ]
    return "\n".join(lines)
