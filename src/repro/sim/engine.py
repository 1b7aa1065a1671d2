"""The discrete-event engine.

The engine owns simulated time. Components schedule callables at absolute
or relative times; :meth:`Engine.run` pops events in ``(time, sequence)``
order and invokes them. Because ties are broken by the monotonically
increasing sequence number, two events scheduled for the same instant fire
in the order they were scheduled, which makes whole simulations
deterministic for a fixed seed.

Heap entries are plain ``(time, seq, event)`` tuples so the heap compares
at C speed without calling back into Python ``__lt__``; the
:class:`ScheduledEvent` object itself is a ``__slots__`` handle used for
cancellation and the schedule-race labels. Cancellation is lazy, but the
engine tracks the cancelled population and compacts the heap in place
whenever cancelled entries outnumber live ones, so timer churn (MRAI
re-arms, reuse-timer reschedules) cannot bloat the queue without bound.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Tuple

from repro.errors import SimulationError
from repro.sim.events import ScheduleTie

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.timers import TimerAudit
    from repro.sim.watchdog import Watchdog

TieObserver = Callable[[ScheduleTie], None]

#: Observer invoked for every executed event when instrumentation is on
#: (the causal tracer installs one via :meth:`Engine.set_event_hook`).
EventHook = Callable[["ScheduledEvent"], None]


class PhaseProbe(Protocol):
    """Structural interface for per-event phase sampling.

    The engine brackets every callback with ``before()``/``after(tag)``
    so the probe — not the engine — owns whatever non-deterministic
    measurement it takes (wall clock for the
    :class:`~repro.trace.profile.EnginePhaseProbe`, tracemalloc for the
    :class:`~repro.sim.allocprobe.AllocationProbe`). The engine itself
    never reads a host clock.
    """

    def before(self) -> None: ...

    def after(self, tag: Optional[str]) -> None: ...

#: Heap entry layout: ties in ``time`` break on ``seq``, and the event
#: handle never participates in comparisons.
_HeapEntry = Tuple[float, int, "ScheduledEvent"]

#: Queues smaller than this are never compacted — rebuilding a tiny heap
#: costs more than skipping its cancelled entries at pop time.
_COMPACT_MIN_SIZE = 64

#: Hoisted so the finiteness guard in :meth:`Engine.schedule_at` does not
#: rebuild a tuple (and two floats) on every scheduling call.
_NON_FINITE = (float("inf"), float("-inf"))

_EventState = Tuple[
    float, int, Callable[[], None], bool, Optional[str], Optional[str], Optional["Engine"]
]


class ScheduledEvent:
    """A callback registered to fire at a simulated instant.

    The engine stores events inside ``(time, seq)``-keyed heap tuples, so
    instances only need to carry state, not ordering. ``cancelled``
    supports lazy cancellation: cancelled entries stay in the heap and are
    skipped when popped (the engine compacts when they pile up). ``actor``
    and ``tag`` are optional labels (the router a callback touches and the
    scheduling site's kind) consumed by the schedule-race detector; they
    never affect ordering.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "actor", "tag", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        actor: Optional[str] = None,
        tag: Optional[str] = None,
        engine: Optional["Engine"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.actor = actor
        self.tag = tag
        #: Back-reference used to report cancellations while the event is
        #: still queued; the engine clears it when the entry leaves the heap.
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event so the engine discards it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            self._engine = None
            engine._note_cancelled()

    def __getstate__(self) -> _EventState:
        return (
            self.time,
            self.seq,
            self.callback,
            self.cancelled,
            self.actor,
            self.tag,
            self._engine,
        )

    def __setstate__(self, state: _EventState) -> None:
        (
            self.time,
            self.seq,
            self.callback,
            self.cancelled,
            self.actor,
            self.tag,
            self._engine,
        ) = state

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

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

    **Schedule-race detection.** Ties — two events at the same instant —
    are resolved deterministically by the sequence number, but when both
    events touch the same router the *outcome* of the simulation depends
    on that tie-break, which is exactly the ordering-dependence static
    analysis cannot see. With ``detect_ties=True`` (or after
    :meth:`enable_tie_detection`) the engine records a
    :class:`~repro.sim.events.ScheduleTie` whenever two labelled events
    with the same ``actor`` fire at the same instant, and forwards it to
    any registered observers (the metrics collector hooks in here).
    Detection is passive: it never reorders, delays, or drops events.
    When detection is off, the run loops skip tie bookkeeping entirely —
    the hot path is pop, advance clock, fire.

    **Heap compaction.** Cancelled events are dropped lazily, but the
    engine counts them and rebuilds the heap in place once they exceed
    half the queue (above :data:`_COMPACT_MIN_SIZE` entries), so heavy
    timer churn keeps memory proportional to the *live* event count.
    """

    def __init__(self, start_time: float = 0.0, detect_ties: bool = False) -> None:
        self._now = float(start_time)
        self._queue: List[_HeapEntry] = []
        self._seq = 0
        self._cancelled = 0
        self._running = False
        self._events_executed = 0
        self._detect_ties = bool(detect_ties)
        self._ties: List[ScheduleTie] = []
        self._tie_observers: List[TieObserver] = []
        self._instant_time: Optional[float] = None
        self._instant_actors: Dict[str, Tuple[int, Optional[str]]] = {}
        self._event_hook: Optional[EventHook] = None
        #: Opt-in timer-lifecycle oracle (:class:`~repro.sim.timers.TimerAudit`);
        #: ``None`` keeps every :class:`~repro.sim.timers.Timer` hook on the
        #: cheap disabled path (one attribute read + ``is None`` test).
        self._timer_audit: Optional["TimerAudit"] = None
        #: Opt-in no-progress detector (:class:`~repro.sim.watchdog.Watchdog`);
        #: observes every executed event through the instrumented path.
        self._watchdog: Optional["Watchdog"] = None
        #: Opt-in per-event phase sampler (profiler sub-phases or the
        #: allocation audit); forces the instrumented dispatch path.
        self._phase_probe: Optional[PhaseProbe] = None
        #: True when the run loops must route through :meth:`_execute`;
        #: derived from the observer slots by :meth:`_refresh_instrumented`
        #: and kept as one precomputed flag so the hot path stays a single
        #: attribute test.
        self._instrumented = False
        self._refresh_instrumented()

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
        return len(self._queue) - self._cancelled

    @property
    def queue_size(self) -> int:
        """Total heap entries, including lazily-cancelled ones (the
        compaction threshold keeps this within 2x the live count)."""
        return len(self._queue)

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
        exist solely for the schedule-race detector.

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
        event = ScheduledEvent(time, seq, callback, actor=actor, tag=tag, engine=self)
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
        self._drop_cancelled_head()
        if not self._queue:
            return None
        return self._queue[0][0]

    def _drop_cancelled_head(self) -> None:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1

    # ------------------------------------------------------------------
    # cancellation bookkeeping / heap compaction
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel` while the event is still
        queued; compacts once cancelled entries outnumber live ones."""
        self._cancelled += 1
        queue_len = len(self._queue)
        if queue_len >= _COMPACT_MIN_SIZE and self._cancelled * 2 > queue_len:
            self.purge_cancelled()

    def purge_cancelled(self) -> int:
        """Drop every cancelled entry from the heap and re-heapify.

        The rebuild mutates the queue list in place, so run loops holding
        a local reference observe the compaction. Returns the number of
        entries removed. Called automatically past the compaction
        threshold; callable explicitly before snapshotting an engine.
        """
        if self._cancelled == 0:
            return 0
        queue = self._queue
        live = [entry for entry in queue if not entry[2].cancelled]
        removed = len(queue) - len(live)
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled = 0
        return removed

    # ------------------------------------------------------------------
    # schedule-race detection
    # ------------------------------------------------------------------

    @property
    def tie_detection_enabled(self) -> bool:
        """Whether same-instant same-actor ties are being recorded."""
        return self._detect_ties

    @property
    def ties(self) -> List[ScheduleTie]:
        """Ties recorded so far (empty unless detection is enabled)."""
        return list(self._ties)

    def enable_tie_detection(self) -> None:
        """Turn on the schedule-race detector for subsequent events."""
        self._detect_ties = True
        self._refresh_instrumented()

    def _refresh_instrumented(self) -> None:
        """Recompute the dispatch flag from the slots :meth:`_execute`
        serves; every method that fills or clears one calls this."""
        self._instrumented = (
            self._detect_ties
            or self._event_hook is not None
            or self._watchdog is not None
            or self._phase_probe is not None
        )

    def set_event_hook(self, hook: Optional[EventHook]) -> None:
        """Install (or clear) an observer invoked with every executed
        event, before its callback fires. Used by the causal tracer; with
        no hook and no tie detection the run loops keep the
        uninstrumented fast dispatch path."""
        self._event_hook = hook
        self._refresh_instrumented()

    def set_phase_probe(self, probe: Optional[PhaseProbe]) -> None:
        """Install (or clear) a per-event phase sampler.

        Every executed event is bracketed with ``probe.before()`` /
        ``probe.after(event.tag)``; the probe maps tags to profiled
        sub-phases. With no probe (and no other instrumentation) the run
        loops keep the uninstrumented fast dispatch path.
        """
        self._phase_probe = probe
        self._refresh_instrumented()

    @property
    def timer_audit(self) -> Optional["TimerAudit"]:
        """The attached timer-lifecycle oracle, or ``None`` when disabled."""
        return self._timer_audit

    def enable_timer_audit(self) -> "TimerAudit":
        """Attach (or return the existing) :class:`~repro.sim.timers.TimerAudit`.

        Once attached, every :class:`~repro.sim.timers.Timer` bound to this
        engine reports its arm/cancel/fire transitions to the audit;
        ``audit.verify()`` at simulation end asserts no timer leaked and
        every fire matched an armed handle. Opt-in for the same reason as
        tie detection: the disabled path must stay free for the hot loop.
        """
        if self._timer_audit is None:
            # Imported lazily: repro.sim.timers imports this module at top
            # level, so the reverse edge must not exist at import time.
            from repro.sim.timers import TimerAudit

            self._timer_audit = TimerAudit(self)
        return self._timer_audit

    @property
    def watchdog(self) -> Optional["Watchdog"]:
        """The attached no-progress detector, or ``None`` when disabled."""
        return self._watchdog

    def enable_watchdog(
        self, max_events_per_instant: Optional[int] = None
    ) -> "Watchdog":
        """Attach (or return the existing) :class:`~repro.sim.watchdog.Watchdog`.

        Once attached, every executed event is observed; executing more
        than ``max_events_per_instant`` events at one identical virtual
        instant raises :class:`~repro.errors.SimulationStalled` with a
        structured diagnostics snapshot (including the pending-timer
        inventory when a :class:`~repro.sim.timers.TimerAudit` is also
        attached). Opt-in because it forces the instrumented dispatch
        path; fault-injection scenarios enable it automatically.
        """
        # Imported lazily: repro.sim.watchdog type-imports this module,
        # and the runtime edge must not exist at import time.
        from repro.sim.watchdog import Watchdog

        if self._watchdog is None:
            if max_events_per_instant is not None:
                self._watchdog = Watchdog(self, max_events_per_instant)
            else:
                self._watchdog = Watchdog(self)
            self._refresh_instrumented()
        elif max_events_per_instant is not None:
            self._watchdog.max_events_per_instant = max_events_per_instant
        return self._watchdog

    def pending_summary(
        self, limit: int = 8
    ) -> List[Tuple[float, Optional[str], Optional[str]]]:
        """The earliest live queue entries as ``(time, actor, tag)``
        triples (diagnostics; at most ``limit`` entries)."""
        # Heap entries are (time, seq, event) with seq unique, so plain
        # tuple order sorts by (time, seq) and never compares events — no
        # key lambda needed.
        live = sorted(entry for entry in self._queue if not entry[2].cancelled)
        return [(entry[0], entry[2].actor, entry[2].tag) for entry in live[:limit]]

    def add_tie_observer(self, observer: TieObserver) -> None:
        """Invoke ``observer`` with every :class:`ScheduleTie` as it is
        recorded (used by the metrics collector)."""
        self._tie_observers.append(observer)

    def clear_ties(self) -> None:
        """Forget recorded ties (between warm-up and the measured run)."""
        self._ties.clear()
        self._instant_time = None
        self._instant_actors = {}

    def _note_tie(self, event: ScheduledEvent) -> None:
        # A "tie" means two events were scheduled for the *identical*
        # float instant, so exact inequality is the correct bucket test.
        if event.time != self._instant_time:  # detlint: disable=DET005
            self._instant_time = event.time
            self._instant_actors = {}
        if event.actor is None:
            return
        anchor = self._instant_actors.get(event.actor)
        if anchor is None:
            self._instant_actors[event.actor] = (event.seq, event.tag)
            return
        tie = ScheduleTie(
            time=event.time,
            actor=event.actor,
            first_seq=anchor[0],
            second_seq=event.seq,
            first_tag=anchor[1],
            second_tag=event.tag,
        )
        self._ties.append(tie)
        for observer in self._tie_observers:
            observer(tie)

    def _execute(self, event: ScheduledEvent) -> None:
        """Advance the clock to ``event`` and fire it (shared by
        :meth:`step` and the instrumented run loops, so detection sees
        every event when it is enabled)."""
        event._engine = None
        self._now = event.time
        self._events_executed += 1
        if self._detect_ties:
            self._note_tie(event)
        if self._watchdog is not None:
            self._watchdog.observe(event)
        if self._event_hook is not None:
            self._event_hook(event)
        probe = self._phase_probe
        if probe is None:
            event.callback()
            return
        probe.before()
        try:
            event.callback()
        finally:
            probe.after(event.tag)

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (the clock does not move in that case).
        """
        self._drop_cancelled_head()
        if not self._queue:
            return False
        self._execute(heapq.heappop(self._queue)[2])
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired in this call.

        Parameters
        ----------
        until:
            If given, stop before executing any event scheduled strictly
            after this time; the clock is then advanced to ``until``.
        max_events:
            Safety valve for runaway simulations; ``None`` means unlimited.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                while queue and queue[0][2].cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                if not queue:
                    break
                entry = queue[0]
                if until is not None and entry[0] > until:
                    break
                heappop(queue)
                event = entry[2]
                if self._instrumented:
                    self._execute(event)
                else:
                    # Hot path: no tie/hook bookkeeping, no extra call.
                    event._engine = None
                    self._now = entry[0]
                    self._events_executed += 1
                    event.callback()
                executed += 1
        finally:
            self._running = False
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
        run reads as "when the simulation went quiet".
        """
        if self._running:
            raise SimulationError("engine.run_until_idle() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while executed < max_events:
                while queue and queue[0][2].cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                if not queue:
                    break
                entry = queue[0]
                if entry[0] > max_time:
                    break
                heappop(queue)
                event = entry[2]
                if self._instrumented:
                    self._execute(event)
                else:
                    # Hot path: no tie/hook bookkeeping, no extra call.
                    event._engine = None
                    self._now = entry[0]
                    self._events_executed += 1
                    event.callback()
                executed += 1
        finally:
            self._running = False
        if executed >= max_events:
            # Imported lazily: repro.sim.watchdog type-imports this module.
            from repro.errors import SimulationStalled
            from repro.sim.watchdog import stall_diagnostics

            diagnostics = stall_diagnostics(self)
            raise SimulationStalled(
                f"simulation did not drain within {max_events} events "
                f"(clock at {self._now:.1f}s)\n" + diagnostics.describe(),
                diagnostics=diagnostics,
            )
        return executed

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions)."""
        for entry in self._queue:
            entry[2]._engine = None
        self._queue.clear()
        self._cancelled = 0

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


def format_time(seconds: float) -> str:
    """Render a simulated time as ``h:mm:ss.mmm`` for logs and reports."""
    total_ms = int(round(seconds * 1000))
    ms = total_ms % 1000
    total_s = total_ms // 1000
    s = total_s % 60
    m = (total_s // 60) % 60
    h = total_s // 3600
    return f"{h}:{m:02d}:{s:02d}.{ms:03d}"


__all__: List[str] = [
    "Engine",
    "EventHook",
    "ScheduleTie",
    "ScheduledEvent",
    "TieObserver",
    "call_soon",
    "format_time",
]
