"""The discrete-event engine.

The engine owns simulated time. Components schedule callables at absolute
or relative times; the engine pops events in ``(time, sequence)`` order
and invokes them. Because ties are broken by the monotonically
increasing sequence number, two events scheduled for the same instant fire
in the order they were scheduled, which makes whole simulations
deterministic for a fixed seed.

Heap entries are plain ``(time, seq, event)`` tuples so the heap compares
at C speed and never looks at the :class:`ScheduledEvent`, which is a
``__slots__`` handle carrying the callback, the cancellation mark and the
schedule-race labels. Cancellation is lazy: a cancelled entry stays in
the heap until it reaches the top and is discarded there. Nothing compacts
the heap in between: the benchmark workloads cancel 0–8 % of what they
schedule and their queues peak at 0.4k–8k entries.

There is **one dispatch loop** (:meth:`Engine._drain`; :meth:`Engine.step`,
:meth:`Engine.run`, :meth:`Engine.run_until_idle` and
:meth:`Engine.run_before` only differ in what they do once it returns)
and **one observer list** (:meth:`Engine.add_observer`), to which the
schedule-race :class:`~repro.sim.events.TieDetector`, the no-progress
:class:`~repro.sim.watchdog.Watchdog` and the causal
:class:`~repro.trace.tracer.Tracer` subscribe. Observers are passive:
they never reorder, delay or drop events.

The loop runs with Python's automatic cyclic collector paused (the
caller's setting is restored on exit). An episode makes no cyclic
garbage of its own, so collections inside the loop only rescanned live
routing state (~14 % of a 1000-node episode). A callback that does make
cycles is reclaimed by the first collection after the loop returns.
"""

from __future__ import annotations

import gc
import heapq
import math
import sys
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Tuple

from repro.errors import SimulationError, SimulationStalled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.timers import TimerAudit
    from repro.sim.watchdog import Watchdog

#: Called with every event the engine is about to fire (see
#: :meth:`Engine.add_observer`).
EventObserver = Callable[["ScheduledEvent"], None]


class PhaseProbe(Protocol):
    """Structural interface for per-event phase sampling.

    The engine brackets every callback with ``before()``/``after(tag)``
    so the probe — not the engine — owns whatever non-deterministic
    measurement it takes (tracemalloc for the
    :class:`~repro.sim.allocprobe.AllocationProbe`, the host clock for
    the repo benchmark's span recorder). The engine itself never reads a
    host clock.
    """

    def before(self) -> None: ...

    def after(self, tag: Optional[str]) -> None: ...


#: Heap entry layout: ties in ``time`` break on ``seq``, and the event
#: handle never participates in comparisons.
_HeapEntry = Tuple[float, int, "ScheduledEvent"]

_INFINITY = float("inf")

#: Hoisted so the finiteness guard in :meth:`Engine.schedule_at` does not
#: rebuild a tuple (and two floats) on every scheduling call.
_NON_FINITE = (_INFINITY, -_INFINITY)


class ScheduledEvent:
    """A callback registered to fire at a simulated instant.

    The engine stores events inside ``(time, seq)``-keyed heap tuples, so
    instances only need to carry state, not ordering. ``cancelled``
    supports lazy cancellation: a cancelled entry stays in the heap and
    is discarded when it is popped. ``actor`` and ``tag`` are optional
    labels (the router a callback touches and the scheduling site's
    kind) consumed by observers; they never affect ordering.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "actor", "tag")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        actor: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.actor = actor
        self.tag = tag

    def cancel(self) -> None:
        """Mark the event so the engine discards it instead of firing it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"ScheduledEvent(time={self.time:.6f}, seq={self.seq}, "
            f"{state}, actor={self.actor!r}, tag={self.tag!r})"
        )


class Engine:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        The initial value of the simulated clock, in seconds.

    Notes
    -----
    The engine never advances the clock past the firing time of the event
    being executed, and it refuses to schedule events in the past; both
    guarantees together mean causality can never be violated by scheduling
    mistakes — they surface as :class:`SimulationError` instead.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_HeapEntry] = []
        self._seq = 0
        self._running = False
        self._events_executed = 0
        #: The registered event observers, in subscription order (a tuple:
        #: :meth:`add_observer` replaces it, the run loop re-reads it).
        self.observers: Tuple[EventObserver, ...] = ()
        self._phase_probe: Optional[PhaseProbe] = None
        #: The attached timer-lifecycle oracle, or ``None`` (the default):
        #: every :class:`~repro.sim.timers.Timer` transition reads this.
        self.timer_audit: Optional["TimerAudit"] = None
        #: The attached no-progress detector, or ``None``; kept so
        #: :meth:`enable_watchdog` subscribes at most one.
        self.watchdog: Optional["Watchdog"] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still in the queue."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        actor: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to fire at absolute simulated ``time``.

        ``actor`` names the router (or other serialisation domain) the
        callback touches and ``tag`` the kind of scheduling site; both
        exist solely for observers.

        Raises
        ------
        SimulationError
            If ``time`` is in the past or not a finite number.
        """
        if time != time or time in _NON_FINITE:
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, clock is already at {self._now:.6f}"
            )
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, actor=actor, tag=tag)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        actor: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, callback, actor=actor, tag=tag)

    def peek_next_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        return min(
            (entry[0] for entry in self._queue if not entry[2].cancelled),
            default=None,
        )

    def pending_summary(
        self, limit: int = 8
    ) -> List[Tuple[float, Optional[str], Optional[str]]]:
        """The earliest live queue entries as ``(time, actor, tag)``
        triples (diagnostics; at most ``limit`` entries)."""
        # seq is unique, so plain tuple order sorts by (time, seq) and
        # never compares events — no key lambda needed.
        live = sorted(entry for entry in self._queue if not entry[2].cancelled)
        return [(entry[0], entry[2].actor, entry[2].tag) for entry in live[:limit]]

    def add_observer(self, observer: EventObserver) -> None:
        """Call ``observer(event)`` with every event from now on, after
        the clock has moved to it and before its callback fires.

        The list is re-read for every event, so an observer added from
        inside a callback sees the next event.
        """
        self.observers += (observer,)

    def set_phase_probe(self, probe: Optional[PhaseProbe]) -> None:
        """Install (or clear) a per-event phase sampler.

        Every executed event is bracketed with ``probe.before()`` /
        ``probe.after(event.tag)`` — the one hook that also runs *after*
        the callback, which is why it is not an observer.
        """
        self._phase_probe = probe

    def enable_timer_audit(self) -> "TimerAudit":
        """Attach (or return the existing) :class:`~repro.sim.timers.TimerAudit`.

        Once attached, every :class:`~repro.sim.timers.Timer` bound to this
        engine reports its arm/cancel/fire transitions to the audit;
        ``audit.verify()`` at simulation end asserts no timer leaked and
        every fire matched an armed handle.
        """
        if self.timer_audit is None:
            # Imported lazily: repro.sim.timers imports this module at top
            # level, so the reverse edge must not exist at import time.
            from repro.sim.timers import TimerAudit

            self.timer_audit = TimerAudit(self)
        return self.timer_audit

    def enable_watchdog(
        self, max_events_per_instant: Optional[int] = None
    ) -> "Watchdog":
        """Attach (or return the existing) :class:`~repro.sim.watchdog.Watchdog`.

        Once attached, the watchdog observes every executed event; more
        than ``max_events_per_instant`` events at one identical virtual
        instant raise :class:`~repro.errors.SimulationStalled` with a
        structured diagnostics snapshot (including the pending-timer
        inventory when a :class:`~repro.sim.timers.TimerAudit` is also
        attached). Fault-injection scenarios enable it automatically.
        """
        # Imported lazily: repro.sim.watchdog type-imports this module,
        # and the runtime edge must not exist at import time.
        from repro.sim.watchdog import DEFAULT_MAX_EVENTS_PER_INSTANT, Watchdog

        if self.watchdog is None:
            if max_events_per_instant is None:
                max_events_per_instant = DEFAULT_MAX_EVENTS_PER_INSTANT
            self.watchdog = Watchdog(self, max_events_per_instant)
            self.add_observer(self.watchdog.observe)
        elif max_events_per_instant is not None:
            self.watchdog.max_events_per_instant = max_events_per_instant
        return self.watchdog

    def _drain(self, until: float, max_events: int) -> int:
        """Fire queued events in ``(time, seq)`` order until the queue is
        empty, the next live event lies after ``until``, or
        ``max_events`` have fired; returns how many fired.

        The only place that pops the heap and calls a callback.
        """
        if self._running:
            raise SimulationError("the engine's run loop is not reentrant")
        self._running = True
        # An episode makes no cyclic garbage: a collection here only rescans.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and executed < max_events:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if time > until:
                    break
                heappop(queue)
                self._now = time
                self._events_executed += 1
                executed += 1
                for observer in self.observers:
                    observer(event)
                probe = self._phase_probe
                if probe is None:
                    event.callback()
                else:
                    probe.before()
                    try:
                        event.callback()
                    finally:
                        probe.after(event.tag)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        return executed

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (the clock does not move in that case).
        """
        return self._drain(_INFINITY, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired in this call; returns how many fired.

        With ``until``, no event scheduled strictly after it is executed
        and the clock is then advanced to ``until``. ``max_events`` is a
        safety valve for runaway simulations; ``None`` means unlimited.
        """
        executed = self._drain(
            _INFINITY if until is None else until,
            sys.maxsize if max_events is None else max_events,
        )
        if until is not None and self._now < until:
            self._now = until
        return executed

    def run_until_idle(self, max_time: float, max_events: int = 10_000_000) -> int:
        """Run until the queue is fully drained or ``max_time`` is reached.

        This is the standard way to run a damping simulation to
        completion: reuse timers are bounded by the max hold-down ceiling,
        so a converged network always drains its queue. Unlike
        :meth:`run`, the clock is left at the last executed event rather
        than advanced to ``max_time``, so ``engine.now`` after a drained
        run reads as "when the simulation went quiet". Raises
        :class:`~repro.errors.SimulationStalled` if ``max_events`` fired
        and a live event at or before ``max_time`` is still queued.
        """
        executed = self._drain(max_time, max_events)
        if executed >= max_events:
            next_time = self.peek_next_time()
            if next_time is not None and next_time <= max_time:
                # Imported lazily: repro.sim.watchdog type-imports this module.
                from repro.sim.watchdog import stall_diagnostics

                diagnostics = stall_diagnostics(self)
                raise SimulationStalled(
                    f"simulation did not drain within {max_events} events "
                    f"(clock at {self._now:.1f}s)\n" + diagnostics.describe(),
                    diagnostics=diagnostics,
                )
        return executed

    def run_before(self, instant: float) -> int:
        """Fire every event strictly before ``instant``, and nothing at it.

        :meth:`run_until_idle` bounded just short of ``instant``: the
        clock stays at the last executed event, so a drain resumed
        afterwards is the same drain as one that never paused. Sweeps
        use it to stop an episode right before a flap event and branch
        off the state every shorter pulse train shares with it.
        """
        return self.run_until_idle(math.nextafter(instant, -math.inf))

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions)."""
        self._queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self._now:.3f}, pending={self.pending_count}, "
            f"executed={self._events_executed})"
        )


def call_soon(
    engine: Engine,
    callback: Callable[[], None],
    actor: Optional[str] = None,
    tag: Optional[str] = None,
) -> ScheduledEvent:
    """Schedule ``callback`` at the current instant (after pending same-time
    events already in the queue)."""
    return engine.schedule(0.0, callback, actor=actor, tag=tag)


__all__: List[str] = [
    "Engine",
    "EventObserver",
    "PhaseProbe",
    "ScheduledEvent",
    "call_soon",
]
