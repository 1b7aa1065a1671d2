"""Cancellable, restartable timers layered on the event engine.

Both BGP's MRAI timer and damping's reuse timer need the same life cycle:
start, possibly reschedule to a later (or earlier) instant while pending,
fire exactly once per arming, and report their state. :class:`Timer`
wraps the engine's lazy-cancellation events with that life cycle.

:class:`TimerAudit` is the opt-in runtime check of that life cycle:
when attached via :meth:`~repro.sim.engine.Engine.enable_timer_audit`,
every timer reports its arm/cancel/fire transitions, and
:meth:`TimerAudit.verify` at simulation end asserts the lifecycle
invariants — no armed handle was abandoned, no handle was re-armed
while already pending, and every fire matched an arming. When no audit
is attached the timers pay one attribute read per transition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import TimerError
from repro.sim.engine import Engine, ScheduledEvent


class TimerState(enum.Enum):
    """Life-cycle states of a :class:`Timer`."""

    IDLE = "idle"
    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class Timer:
    """A one-shot timer that can be rescheduled while pending.

    Parameters
    ----------
    engine:
        The event engine that owns simulated time.
    callback:
        Invoked with no arguments when the timer fires.
    name:
        Optional label used in error messages and ``repr``.
    actor:
        Optional router name forwarded to the scheduled event; the
        watchdog's stall diagnostics name it.
    tag:
        Kind label forwarded the same way (``"mrai"``, ``"reuse"``, ...);
        the phase probe and the diagnostics read it.
    """

    def __init__(
        self,
        engine: Engine,
        callback: Callable[[], None],
        name: str = "",
        actor: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> None:
        self._engine = engine
        self._callback = callback
        self._name = name
        self._actor = actor
        self._tag = tag
        #: Current life-cycle state; read-only for everyone but the timer.
        self.state = TimerState.IDLE
        self._event: Optional[ScheduledEvent] = None
        self._expiry: Optional[float] = None

    @property
    def is_pending(self) -> bool:
        return self.state is TimerState.PENDING

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will (or did) fire, ``None`` if idle."""
        return self._expiry

    def start(self, delay: float) -> None:
        """Arm the timer to fire ``delay`` seconds from now.

        Raises
        ------
        TimerError
            If the timer is already pending (use :meth:`reschedule`).
        """
        if self.state is TimerState.PENDING:
            raise TimerError(f"timer {self._name!r} already pending; use reschedule()")
        self._arm(delay)

    def reschedule(self, delay: float) -> None:
        """Move a pending timer's expiry to ``delay`` seconds from now,
        or arm an idle one."""
        if self.state is TimerState.PENDING and self._event is not None:
            self._event.cancel()
            audit = self._engine.timer_audit
            if audit is not None:
                audit.record_cancel(self)
        self._arm(delay)

    def restart_if_idle(self, delay: float) -> bool:
        """Arm the timer only if it is not currently pending.

        Returns ``True`` if the timer was armed by this call.
        """
        if self.state is TimerState.PENDING:
            return False
        self._arm(delay)
        return True

    def cancel(self) -> None:
        """Disarm a pending timer; a no-op in any other state."""
        if self.state is TimerState.PENDING and self._event is not None:
            self._event.cancel()
            self._event = None
            self.state = TimerState.CANCELLED
            self._expiry = None
            audit = self._engine.timer_audit
            if audit is not None:
                audit.record_cancel(self)

    def _arm(self, delay: float) -> None:
        if delay < 0:
            raise TimerError(f"timer {self._name!r} delay must be >= 0, got {delay}")
        engine = self._engine
        self._expiry = expiry = engine.now + delay
        self._event = engine.schedule_at(
            expiry, self._fire, actor=self._actor, tag=self._tag
        )
        self.state = TimerState.PENDING
        audit = engine.timer_audit
        if audit is not None:
            audit.record_arm(self)

    def _fire(self) -> None:
        audit = self._engine.timer_audit
        if audit is not None:
            # Before the state guard on purpose: a fire that arrives while
            # the timer is not pending (a hand-called ``_fire``, or a stale
            # event surviving a bypassed cancel) is exactly the unmatched
            # fire the audit exists to catch.
            audit.record_fire(self)
        # The engine only calls this for non-cancelled events, but a
        # reschedule may have replaced self._event; guard on state anyway.
        if self.state is not TimerState.PENDING:
            return
        self.state = TimerState.FIRED
        self._event = None
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self._name!r}, state={self.state.value}, expiry={self._expiry})"


@dataclass(frozen=True)
class TimerAuditViolation:
    """One lifecycle invariant broken at runtime.

    ``kind`` is one of ``"double-arm"`` (a handle was armed while the
    audit still considered it armed — only reachable by bypassing the
    :meth:`Timer.start` guard), ``"unmatched-fire"`` (a fire with no
    matching arming, e.g. a hand-called ``_fire`` or a stale event left
    behind by a bypassed cancel), or ``"leak"`` (at verify time a handle
    the audit considers armed can no longer fire because its engine event
    is gone or cancelled).
    """

    kind: str
    timer: str
    time: float
    detail: str


class _AuditRecord:
    """Per-handle ledger entry; holds a strong reference to the timer so
    ``id()`` reuse cannot alias two handles within one audit."""

    __slots__ = ("serial", "timer", "armed", "arms", "fires", "cancels")

    def __init__(self, serial: int, timer: Timer) -> None:
        self.serial = serial
        self.timer = timer
        self.armed = False
        self.arms = 0
        self.fires = 0
        self.cancels = 0


class TimerAudit:
    """Runtime oracle for timer-lifecycle invariants.

    Attach via :meth:`~repro.sim.engine.Engine.enable_timer_audit`
    *before* components create their timers, run the simulation, then
    call :meth:`verify`. The audit is passive — it never reorders,
    delays, or suppresses events — and deterministic: handles are
    numbered in first-seen order and violations are reported in
    occurrence order, so its output is stable across identical runs.

    A timer that is still pending with a live engine event at verify
    time is *not* a leak (the simulation was merely stopped early); it
    is listed by :meth:`pending_timers` instead. A leak means the armed
    handle can never fire: its event was cancelled or dropped behind
    the timer's back.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._records: Dict[int, _AuditRecord] = {}
        self._violations: List[TimerAuditViolation] = []

    # ------------------------------------------------------------------
    # recording hooks (called by Timer)
    # ------------------------------------------------------------------

    def _record_for(self, timer: Timer) -> _AuditRecord:
        key = id(timer)
        record = self._records.get(key)
        if record is None:
            record = _AuditRecord(len(self._records), timer)
            self._records[key] = record
        return record

    def _label(self, record: _AuditRecord) -> str:
        return record.timer._name or f"<timer #{record.serial}>"

    def record_arm(self, timer: Timer) -> None:
        record = self._record_for(timer)
        record.arms += 1
        if record.armed:
            self._violations.append(
                TimerAuditViolation(
                    kind="double-arm",
                    timer=self._label(record),
                    time=self._engine.now,
                    detail=(
                        f"armed while already armed (arming #{record.arms}); "
                        "the previous arming was never fired or cancelled"
                    ),
                )
            )
        record.armed = True

    def record_cancel(self, timer: Timer) -> None:
        record = self._record_for(timer)
        record.cancels += 1
        record.armed = False

    def record_fire(self, timer: Timer) -> None:
        record = self._record_for(timer)
        record.fires += 1
        if not record.armed:
            self._violations.append(
                TimerAuditViolation(
                    kind="unmatched-fire",
                    timer=self._label(record),
                    time=self._engine.now,
                    detail=(
                        f"fire #{record.fires} has no matching arming "
                        "(manual _fire call or stale event)"
                    ),
                )
            )
        record.armed = False

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def timers_seen(self) -> int:
        """Number of distinct timer handles that reported a transition."""
        return len(self._records)

    @property
    def transitions(self) -> int:
        """Total arm/cancel/fire transitions recorded."""
        return sum(r.arms + r.fires + r.cancels for r in self._records.values())

    def pending_timers(self) -> List[str]:
        """Labels of timers still armed with a live event (stopped-early
        state, not a violation), in first-seen order."""
        names: List[str] = []
        for record in sorted(self._records.values(), key=lambda r: r.serial):
            if record.armed and self._event_is_live(record.timer):
                names.append(self._label(record))
        return names

    @staticmethod
    def _event_is_live(timer: Timer) -> bool:
        event = timer._event
        return event is not None and not event.cancelled

    def verify(self) -> List[TimerAuditViolation]:
        """All violations observed so far plus end-state leaks.

        Safe to call repeatedly; transition violations accumulate in
        occurrence order and leak checks reflect the current end state.
        """
        violations = list(self._violations)
        for record in sorted(self._records.values(), key=lambda r: r.serial):
            if record.armed and not self._event_is_live(record.timer):
                violations.append(
                    TimerAuditViolation(
                        kind="leak",
                        timer=self._label(record),
                        time=self._engine.now,
                        detail=(
                            f"armed handle can never fire ({record.arms} arm(s), "
                            f"{record.fires} fire(s), {record.cancels} cancel(s)); "
                            "its engine event was cancelled or dropped behind "
                            "the timer's back"
                        ),
                    )
                )
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimerAudit(timers={self.timers_seen}, "
            f"transitions={self.transitions}, "
            f"violations={len(self._violations)})"
        )
