"""Per-router route-flap-damping state machine.

:class:`DampingManager` owns, for one router, the per-(peer, prefix)
penalty states, suppression flags, and reuse timers. The hosting BGP
router calls :meth:`record_update` for every received update and consults
:meth:`is_suppressed` in its decision process; the manager calls back into
the router when a reuse timer fires so the router can re-run path
selection (and report whether the expiry was *noisy* — i.e. changed the
Loc-RIB — which is the paper's key observable).

Charging can be gated by a filter (RCN history or the selective-damping
heuristic): the router decides *whether* an update charges, the manager
does the bookkeeping either way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.params import DampingParams, UpdateKind
from repro.core.penalty import PenaltyState
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.timers import Timer

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

#: Callback fired when a reuse timer expires: (peer, prefix) -> noisy?
ReuseCallback = Callable[[str, str], bool]

EntryKey = Tuple[str, str]


@dataclass
class SuppressionRecord:
    """One completed (or ongoing) suppression interval for an entry."""

    peer: str
    prefix: str
    started: float
    penalty_at_start: float
    ended: Optional[float] = None
    noisy_reuse: Optional[bool] = None
    #: Times at which the reuse timer was pushed back by further charges
    #: while suppressed (secondary charging shows up here).
    recharges: List[float] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.ended is None:
            return None
        return self.ended - self.started


def charging_only_reuse_time(record: SuppressionRecord, params: DampingParams) -> float:
    """When ``record``'s route would have been reused had no recharge
    pushed its reuse timer back; anything after it is time that
    secondary charging added to the suppression."""
    return record.started + params.reuse_delay(record.penalty_at_start)


@dataclass
class ReuseEvent:
    """A reuse-timer expiry and its observed effect."""

    __slots__ = ("time", "peer", "prefix", "noisy")

    time: float
    peer: str
    prefix: str
    noisy: bool


@dataclass
class UpdateOutcome:
    """What :meth:`DampingManager.record_update` did with one update.

    Allocated once per processed update — slotted so the hot path does
    not grow a ``__dict__`` per outcome.
    """

    __slots__ = (
        "penalty",
        "charged",
        "suppressed",
        "newly_suppressed",
        "rescheduled_reuse",
    )

    penalty: float
    charged: bool
    suppressed: bool
    newly_suppressed: bool
    rescheduled_reuse: bool


class _Entry:
    """Damping state for one (peer, prefix)."""

    __slots__ = ("penalty", "suppressed", "timer", "current_record", "trace_timer")

    def __init__(self, params: DampingParams) -> None:
        self.penalty = PenaltyState(params)
        self.suppressed = False
        self.timer: Optional[Timer] = None
        self.current_record: Optional[SuppressionRecord] = None
        #: Trace-record id of whatever last (re)armed the reuse timer
        #: (``reuse_set`` / ``reuse_postponed``) — the causal parent of
        #: the eventual ``reuse_expired`` record.
        self.trace_timer: Optional[int] = None


class DampingManager:
    """Route-flap-damping bookkeeping for one router.

    Parameters
    ----------
    engine:
        The simulation engine (timers, current time).
    params:
        This router's damping configuration.
    owner:
        The hosting router's name (used in traces and errors).
    on_reuse:
        Called when a reuse timer fires, *after* the entry is marked
        reusable. Must return ``True`` if the expiry changed the router's
        Loc-RIB (a *noisy* reuse) and ``False`` otherwise (*silent*).
    """

    def __init__(
        self,
        engine: Engine,
        params: DampingParams,
        owner: str,
        on_reuse: ReuseCallback,
    ) -> None:
        self._engine = engine
        self.params = params
        self.owner = owner
        self._on_reuse = on_reuse
        self._entries: Dict[EntryKey, _Entry] = {}
        #: Completed and ongoing suppression intervals, in start order.
        self.suppressions: List[SuppressionRecord] = []
        #: Every reuse-timer expiry, in time order.
        self.reuse_events: List[ReuseEvent] = []
        #: Observers notified on suppression start/end:
        #: f(time, peer, prefix, suppressed_now).
        self.suppression_observers: List[Callable[[float, str, str, bool], None]] = []
        #: Causal tracer observing this manager (set by Tracer.attach).
        self.trace: Optional["Tracer"] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def entry_keys(self) -> List[EntryKey]:
        return list(self._entries)

    def is_suppressed(self, peer: str, prefix: str) -> bool:
        entry = self._entries.get((peer, prefix))
        return entry is not None and entry.suppressed

    def suppressed_entries(self) -> List[EntryKey]:
        """All currently suppressed (peer, prefix) pairs."""
        return [key for key, entry in self._entries.items() if entry.suppressed]

    def penalty_value(self, peer: str, prefix: str, now: Optional[float] = None) -> float:
        """Current decayed penalty for an entry (0.0 if never charged)."""
        entry = self._entries.get((peer, prefix))
        if entry is None:
            return 0.0
        return entry.penalty.value_at(self._engine.now if now is None else now)

    def penalty_state(self, peer: str, prefix: str) -> PenaltyState:
        """The raw :class:`PenaltyState` (created on demand) — used by
        metrics to reconstruct penalty curves."""
        return self._entry(peer, prefix).penalty

    def reuse_timer_expiry(self, peer: str, prefix: str) -> Optional[float]:
        """Absolute expiry time of the entry's pending reuse timer."""
        entry = self._entries.get((peer, prefix))
        if entry is None or entry.timer is None or not entry.timer.is_pending:
            return None
        return entry.timer.expiry

    def recharge_count(self) -> int:
        """Total reuse-timer postponements recorded while suppressed —
        this router's footprint of the paper's secondary charging."""
        return sum(len(record.recharges) for record in self.suppressions)

    def continue_from(self, predecessor: "DampingManager") -> None:
        """Take over the record of the manager this one replaces
        mid-episode.

        A router crash destroys its damping *state* (penalties,
        suppressions, reuse timers die with the control plane), but not
        what was observed of it: the metrics collector and causal tracer
        attached to the predecessor keep observing the fresh instance,
        and its ``suppressions`` and ``reuse_events`` histories continue
        here — the collector pulls both from whichever manager is current,
        so a restarted router's pre-crash history would otherwise vanish
        from summaries and digests.
        """
        self.suppression_observers.extend(predecessor.suppression_observers)
        self.trace = predecessor.trace
        self.suppressions = predecessor.suppressions
        self.reuse_events = predecessor.reuse_events

    def end_suppressions(self) -> None:
        """End every ongoing suppression without a reuse (owner crash).

        The control plane holding the entries is gone, so nothing is
        suppressed any more even though no reuse timer fired: observers
        see ``suppressed=False`` and each open :class:`SuppressionRecord`
        closes now with ``noisy_reuse`` left ``None`` and no
        :class:`ReuseEvent`. Without this the damped-link count keeps
        counting entries of a router that suppresses nothing.
        """
        now = self._engine.now
        for (peer, prefix), entry in self._entries.items():
            if not entry.suppressed:
                continue
            entry.suppressed = False
            for observer in self.suppression_observers:
                observer(now, peer, prefix, False)
            if entry.current_record is not None:
                entry.current_record.ended = now
                entry.current_record = None

    def cancel_all_timers(self) -> int:
        """Disarm every pending reuse timer; returns how many were pending.

        Quiesces the manager before it is discarded or replaced (e.g.
        :meth:`~repro.bgp.router.BgpRouter.reset_damping` between warm-up
        and the measured episode). Without this, a replaced manager's
        armed timers keep firing into state nobody reads.
        """
        cancelled = 0
        for entry in self._entries.values():
            if entry.timer is not None and entry.timer.is_pending:
                entry.timer.cancel()
                cancelled += 1
        return cancelled

    # ------------------------------------------------------------------
    # update processing
    # ------------------------------------------------------------------

    def record_update(
        self,
        peer: str,
        prefix: str,
        kind: UpdateKind,
        charge: bool = True,
    ) -> UpdateOutcome:
        """Account for one received update.

        ``charge=False`` (set by an RCN or selective filter upstream)
        skips the penalty increment but still evaluates suppression
        against the decayed penalty — matching the paper's "the filter
        only prevents some updates from reaching the damping algorithm".
        """
        now = self._engine.now
        entry = self._entry(peer, prefix)
        increment = self.params.penalty_increment(kind) if charge else 0.0
        if charge:
            # add() with the increment computed above — charge() would
            # look the increment up a second time for the same update.
            penalty = entry.penalty.add(now, increment)
        else:
            penalty = entry.penalty.touch(now)

        trace = self.trace
        charge_rid: Optional[int] = None
        if trace is not None:
            charge_rid = trace.emit(
                "charge",
                now,
                node=self.owner,
                cause=trace.context,
                peer=peer,
                prefix=prefix,
                kind=kind.name.lower(),
                charged=charge,
                penalty=round(penalty, 6),
            )

        newly_suppressed = False
        rescheduled = False
        if entry.suppressed:
            # Only an update that actually raised the penalty can push the
            # reuse timer out; zero-increment kinds (e.g. Cisco
            # re-announcements) leave the existing schedule untouched.
            if increment > 0.0 and penalty > self.params.reuse_threshold:
                # Push the reuse timer out to the new decay horizon —
                # this is the "recharge" that secondary charging exploits.
                delay = self.params.reuse_delay(penalty)
                self._ensure_timer(peer, prefix, entry).reschedule(delay)
                rescheduled = True
                if entry.current_record is not None:
                    entry.current_record.recharges.append(now)
                if trace is not None:
                    entry.trace_timer = trace.emit(
                        "reuse_postponed",
                        now,
                        node=self.owner,
                        cause=charge_rid,
                        peer=peer,
                        prefix=prefix,
                        expiry=round(now + delay, 6),
                    )
        elif penalty > self.params.cutoff_threshold:
            self._suppress(peer, prefix, entry, penalty, cause_id=charge_rid)
            newly_suppressed = True

        return UpdateOutcome(
            penalty=penalty,
            charged=charge,
            suppressed=entry.suppressed,
            newly_suppressed=newly_suppressed,
            rescheduled_reuse=rescheduled,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _entry(self, peer: str, prefix: str) -> _Entry:
        key = (peer, prefix)
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(self.params)
            self._entries[key] = entry
        return entry

    def _ensure_timer(self, peer: str, prefix: str, entry: _Entry) -> Timer:
        if entry.timer is None:
            # functools.partial rather than a lambda so idle managers stay
            # picklable for warm-state snapshots.
            entry.timer = Timer(
                self._engine,
                functools.partial(self._reuse_fired, peer, prefix),
                # One allocation per (peer, prefix) lifetime, not per event.
                name=f"reuse:{self.owner}:{peer}:{prefix}",
                actor=self.owner,
                tag="reuse",
            )
        return entry.timer

    def _suppress(
        self,
        peer: str,
        prefix: str,
        entry: _Entry,
        penalty: float,
        cause_id: Optional[int] = None,
    ) -> None:
        now = self._engine.now
        entry.suppressed = True
        # SuppressionRecord carries defaulted fields and a list factory, so
        # it cannot take __slots__ on this Python; suppressions are rare
        # relative to charges, so the dict cost is accepted.
        record = SuppressionRecord(
            peer=peer, prefix=prefix, started=now, penalty_at_start=penalty
        )
        entry.current_record = record
        self.suppressions.append(record)
        delay = self.params.reuse_delay(penalty)
        if delay <= 0:
            raise SimulationError(
                f"{self.owner}: suppression with non-positive reuse delay "
                f"(penalty {penalty}, reuse {self.params.reuse_threshold})"
            )
        self._ensure_timer(peer, prefix, entry).reschedule(delay)
        trace = self.trace
        if trace is not None:
            suppress_rid = trace.emit(
                "suppress",
                now,
                node=self.owner,
                cause=cause_id,
                peer=peer,
                prefix=prefix,
                penalty=round(penalty, 6),
            )
            entry.trace_timer = trace.emit(
                "reuse_set",
                now,
                node=self.owner,
                cause=suppress_rid,
                peer=peer,
                prefix=prefix,
                expiry=round(now + delay, 6),
            )
        for observer in self.suppression_observers:
            observer(now, peer, prefix, True)

    def _reuse_fired(self, peer: str, prefix: str) -> None:
        now = self._engine.now
        entry = self._entries[(peer, prefix)]
        if not entry.suppressed:
            return
        entry.suppressed = False
        for observer in self.suppression_observers:
            observer(now, peer, prefix, False)
        trace = self.trace
        expired_rid: Optional[int] = None
        if trace is not None:
            expired_rid = trace.emit(
                "reuse_expired",
                now,
                node=self.owner,
                cause=entry.trace_timer,
                peer=peer,
                prefix=prefix,
            )
            entry.trace_timer = None
            # Everything the reuse triggers (re-selection, sends, and —
            # downstream — the secondary charges) descends from this record.
            trace.set_context(expired_rid)
        noisy = bool(self._on_reuse(peer, prefix))
        if trace is not None and expired_rid is not None:
            trace.amend(expired_rid, noisy=noisy)
        self.reuse_events.append(ReuseEvent(time=now, peer=peer, prefix=prefix, noisy=noisy))
        if entry.current_record is not None:
            entry.current_record.ended = now
            entry.current_record.noisy_reuse = noisy
            entry.current_record = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DampingManager({self.owner!r}, entries={len(self._entries)}, "
            f"suppressed={len(self.suppressed_entries())})"
        )
