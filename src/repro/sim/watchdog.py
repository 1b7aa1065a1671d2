"""No-progress detection for the event engine.

A damping simulation is supposed to drain: reuse timers are bounded by
the max hold-down ceiling, MRAI timers go quiet once routers stop
churning. A bug that breaks either property — a zero-delay event that
re-schedules itself, two components re-triggering each other at the same
instant, a timer callback that re-arms unconditionally — turns
``run_until_idle`` into an unbounded loop at a frozen virtual clock.

The :class:`Watchdog` makes that failure mode structural instead of a
hang: it counts events executed at each identical virtual instant and,
past a threshold, raises :class:`~repro.errors.SimulationStalled`
carrying a :class:`StallDiagnostics` snapshot — the clock, progress
counters, a sample of the next pending events, and (when a
:class:`~repro.sim.timers.TimerAudit` is attached) the pending-timer
inventory, so the failure names the timers that kept the queue alive.

The watchdog is opt-in (:meth:`~repro.sim.engine.Engine.enable_watchdog`
subscribes :meth:`Watchdog.observe` as an engine observer);
fault-injection scenarios enable it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationStalled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, ScheduledEvent

#: Default ceiling on events executed at one identical virtual instant.
#: Orders of magnitude above anything a real episode produces (a full
#: mesh delivering one update per link at one instant is O(links)), and
#: low enough to trip within milliseconds of wall-clock on a wedge.
DEFAULT_MAX_EVENTS_PER_INSTANT = 50_000

#: How many upcoming events a diagnostics snapshot samples.
_NEXT_EVENT_SAMPLE = 8


@dataclass(frozen=True)
class StallDiagnostics:
    """Structured snapshot of a stalled engine.

    ``culprit`` is the ``(actor, tag)`` of the event whose execution
    tripped the watchdog — the queue sample alone can miss it, because a
    self-rescheduling wedge trips *before* it re-arms, leaving the queue
    empty. ``next_events`` samples the earliest live queue entries as
    ``(time, actor, tag)`` triples; ``pending_timers`` is the
    :meth:`~repro.sim.timers.TimerAudit.pending_timers` inventory when an
    audit was attached (``None`` means no audit, not "no timers").
    """

    now: float
    events_executed: int
    events_at_instant: int
    pending_count: int
    next_events: Tuple[Tuple[float, Optional[str], Optional[str]], ...]
    pending_timers: Optional[Tuple[str, ...]]
    culprit: Optional[Tuple[Optional[str], Optional[str]]] = None

    def describe(self) -> str:
        """Multi-line human-readable rendering (CLI error output)."""
        lines = [
            f"clock {self.now:.6f}s, {self.events_executed} events executed, "
            f"{self.events_at_instant} at the current instant, "
            f"{self.pending_count} pending",
        ]
        if self.culprit is not None:
            actor, tag = self.culprit
            lines.append(f"tripped by: actor={actor or '?'} tag={tag or '?'}")
        if self.next_events:
            lines.append("next events:")
            for time, actor, tag in self.next_events:
                lines.append(
                    f"  t={time:.6f} actor={actor or '?'} tag={tag or '?'}"
                )
        if self.pending_timers is None:
            lines.append("pending timers: (no timer audit attached)")
        elif self.pending_timers:
            lines.append("pending timers:")
            for label in self.pending_timers:
                lines.append(f"  {label}")
        else:
            lines.append("pending timers: none")
        return "\n".join(lines)


def stall_diagnostics(
    engine: "Engine",
    events_at_instant: int = 0,
    culprit: Optional[Tuple[Optional[str], Optional[str]]] = None,
) -> StallDiagnostics:
    """Snapshot ``engine``'s queue and timer inventory for a stall report."""
    audit = engine.timer_audit
    inventory: Optional[Tuple[str, ...]] = None
    if audit is not None:
        inventory = tuple(audit.pending_timers())
    # StallDiagnostics has a defaulted field, so it cannot take __slots__
    # on this Python; it is built once per stall report, never per event.
    return StallDiagnostics(  # perflint: disable=PERF006
        now=engine.now,
        events_executed=engine.events_executed,
        events_at_instant=events_at_instant,
        pending_count=engine.pending_count,
        next_events=tuple(engine.pending_summary(_NEXT_EVENT_SAMPLE)),
        pending_timers=inventory,
        culprit=culprit,
    )


class Watchdog:
    """Counts events per identical virtual instant and trips on a stall.

    Observation is passive — the watchdog never reorders, delays, or
    drops events — and deterministic: the same run trips at the same
    event, so stall reports are reproducible like everything else.
    """

    def __init__(
        self,
        engine: "Engine",
        max_events_per_instant: int = DEFAULT_MAX_EVENTS_PER_INSTANT,
    ) -> None:
        if max_events_per_instant < 1:
            raise ConfigurationError(
                f"max_events_per_instant must be >= 1, got {max_events_per_instant}"
            )
        self._engine = engine
        self.max_events_per_instant = max_events_per_instant
        self._instant: Optional[float] = None
        self._count = 0

    @property
    def events_at_instant(self) -> int:
        """Events observed so far at the current virtual instant."""
        return self._count

    def observe(self, event: "ScheduledEvent") -> None:
        """Engine observer: called once per executed event.

        Raises
        ------
        SimulationStalled
            When more than ``max_events_per_instant`` events execute at
            one identical virtual instant.
        """
        # A stall bucket is the *identical* float instant — any advance,
        # however small, is progress, so exact inequality is correct.
        if event.time != self._instant:  # detlint: disable=DET005
            self._instant = event.time
            self._count = 1
            return
        self._count += 1
        if self._count > self.max_events_per_instant:
            diagnostics = stall_diagnostics(
                self._engine, self._count, culprit=(event.actor, event.tag)
            )
            raise SimulationStalled(
                f"no progress: {self._count} events executed at "
                f"t={event.time:.6f}s without the clock advancing\n"
                + diagnostics.describe(),
                diagnostics=diagnostics,
            )


__all__ = [
    "DEFAULT_MAX_EVENTS_PER_INSTANT",
    "StallDiagnostics",
    "Watchdog",
    "stall_diagnostics",
]
