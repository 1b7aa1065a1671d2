"""The opt-in schedule-race detector and the tie record it produces.

What happened during an episode is recorded elsewhere: the always-on
:class:`~repro.metrics.collector.MetricsCollector` holds the update and
suppression timelines, and the opt-in :class:`~repro.trace.tracer.Tracer`
the causal one (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, ScheduledEvent


@dataclass(frozen=True)
class ScheduleTie:
    """Two events firing at the same simulated instant against one actor.

    Recorded by the opt-in :class:`TieDetector`. A tie is not
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


class TieDetector:
    """Engine observer that records same-instant same-actor ties.

    Constructing a detector subscribes it to ``engine``
    (:meth:`~repro.sim.engine.Engine.add_observer`); from then on it
    appends a :class:`ScheduleTie` to :attr:`ties` whenever two labelled
    events with the same ``actor`` fire at the same instant. Detection is
    passive: it never reorders, delays, or drops events.
    """

    def __init__(self, engine: "Engine") -> None:
        #: Ties recorded so far, in firing order.
        self.ties: List[ScheduleTie] = []
        self._instant: Optional[float] = None
        self._anchors: Dict[str, Tuple[int, Optional[str]]] = {}
        engine.add_observer(self.observe)

    def observe(self, event: "ScheduledEvent") -> None:
        """Engine observer: called with every event about to fire."""
        # A "tie" means two events were scheduled for the *identical*
        # float instant, so exact inequality is the correct bucket test.
        if event.time != self._instant:
            self._instant = event.time
            self._anchors = {}
        if event.actor is None:
            return
        anchor = self._anchors.get(event.actor)
        if anchor is None:
            self._anchors[event.actor] = (event.seq, event.tag)
            return
        self.ties.append(
            ScheduleTie(
                time=event.time,
                actor=event.actor,
                first_seq=anchor[0],
                second_seq=event.seq,
                first_tag=anchor[1],
                second_tag=event.tag,
            )
        )

    def clear(self) -> None:
        """Forget recorded ties (between warm-up and the measured run)."""
        self.ties.clear()
        self._instant = None
        self._anchors = {}
