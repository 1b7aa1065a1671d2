"""The schedule-tie record of the engine's opt-in race detector.

What happened during an episode is recorded elsewhere: the always-on
:class:`~repro.metrics.collector.MetricsCollector` holds the update and
suppression timelines, and the opt-in :class:`~repro.trace.tracer.Tracer`
the causal one (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class ScheduleTie:
    """Two events firing at the same simulated instant against one actor.

    Recorded by the engine's opt-in schedule-race detector (see
    :meth:`repro.sim.engine.Engine.enable_tie_detection`). A tie is not
    itself a bug — the ``(time, seq)`` heap order resolves it
    deterministically — but it marks a place where results *depend* on
    scheduling order, which static analysis cannot see. ``first_seq`` is
    the anchor event of the instant (the first event touching ``actor``
    at ``time``); ``second_seq`` is the tied event. Tags carry the
    scheduling site's label (``deliver``, ``mrai``, ``reuse``, ``flap``).
    """

    time: float
    actor: str
    first_seq: int
    second_seq: int
    first_tag: Optional[str] = None
    second_tag: Optional[str] = None

    @property
    def tags(self) -> Tuple[str, str]:
        """The (anchor, tied) tag pair, with ``?`` for unlabelled events."""
        return (self.first_tag or "?", self.second_tag or "?")
