"""Per-peer MRAI (Minimum Route Advertisement Interval) rate limiting.

BGP spaces successive announcements to the same peer by the MRAI. This is
what turns a withdrawal into minutes of visible path exploration: each
router switches to a progressively worse alternate, but may only tell its
neighbours about the change every ~30 jittered seconds.

The limiter is *state-based*, like real implementations: while the timer
runs, the router only marks the prefix dirty; when the timer fires it
announces whatever the *current* best route is (skipping the send entirely
if the Adj-RIB-Out is already up to date). Withdrawals bypass the timer by
default (Cisco behaviour, and the setting used in SSFNet-era studies);
set ``apply_to_withdrawals`` to rate-limit them too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set

from repro.errors import ConfigurationError, TimerError
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.timers import Timer, TimerState

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer


@dataclass(frozen=True)
class MraiConfig:
    """MRAI settings for one router.

    ``base`` is the nominal interval in seconds; each arming draws a
    multiplicative jitter from ``[jitter_low, jitter_high]`` (the
    3/4-to-1 spread recommended by RFC 4271 and used by SSFNet).
    ``base = 0`` disables rate limiting entirely.
    """

    base: float = 30.0
    jitter_low: float = 0.75
    jitter_high: float = 1.0
    apply_to_withdrawals: bool = False

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigurationError(f"MRAI base must be >= 0, got {self.base}")
        if not (0.0 < self.jitter_low <= self.jitter_high):
            raise ConfigurationError(
                f"need 0 < jitter_low <= jitter_high, got "
                f"[{self.jitter_low}, {self.jitter_high}]"
            )

    @property
    def enabled(self) -> bool:
        return self.base > 0.0


class MraiLimiter:
    """Rate limiter for one router's announcements, one timer per peer.

    The hosting router supplies ``flush(peer, prefixes)``: called when the
    peer's timer expires with the set of dirty prefixes; the router then
    sends whatever delta its Adj-RIB-Out requires. The limiter restarts
    the timer only when the flush reports that something was actually
    sent, so an idle router's timers go quiet and the event queue drains.
    """

    def __init__(
        self,
        engine: Engine,
        config: MraiConfig,
        owner: str,
        rng: RngRegistry,
        flush: Callable[[str, Set[str]], bool],
    ) -> None:
        self._engine = engine
        self.config = config
        self.owner = owner
        self._rng = rng.stream(f"mrai:{owner}")
        self._flush = flush
        self._timers: Dict[str, Timer] = {}
        self._dirty: Dict[str, Set[str]] = {}
        #: Causal tracer observing this limiter (set by Tracer.attach).
        self.trace: Optional["Tracer"] = None
        #: Per-peer trace id of the record whose handling last deferred a
        #: prefix — the causal parent of the eventual ``mrai_flush``.
        self._defer_cause: Dict[str, Optional[int]] = {}

    def may_send_now(self, peer: str) -> bool:
        """True when an announcement to ``peer`` may go out immediately."""
        # A disabled limiter never creates a timer, so this covers it too.
        timer = self._timers.get(peer)
        return timer is None or timer.state is not TimerState.PENDING

    def note_sent(self, peer: str) -> None:
        """Record that an announcement was just sent to ``peer`` and start
        the hold-off timer."""
        if not self.config.enabled:
            return
        timer = self._timers.get(peer)
        if timer is None:
            # functools.partial rather than a lambda so idle limiters stay
            # picklable for warm-state snapshots.
            timer = Timer(
                self._engine,
                functools.partial(self._expired, peer),
                # One allocation per peer lifetime, not per sent update.
                name=f"mrai:{self.owner}->{peer}",  # perflint: disable=PERF004
                actor=self.owner,
                tag="mrai",
            )
            self._timers[peer] = timer
        config = self.config
        timer.reschedule(
            config.base * self._rng.uniform(config.jitter_low, config.jitter_high)
        )

    def defer(self, peer: str, prefix: str) -> None:
        """Mark ``prefix`` dirty for ``peer``; it will be re-evaluated when
        the peer's timer expires.

        Only valid while the peer is held off (``may_send_now`` False) —
        deferring with no pending timer would strand the prefix, since
        nothing would ever flush it.
        """
        timer = self._timers.get(peer)
        if timer is None or timer.state is not TimerState.PENDING:
            raise TimerError(
                f"{self.owner}: defer({peer!r}, {prefix!r}) while the peer "
                f"may send — send immediately instead"
            )
        self._dirty.setdefault(peer, set()).add(prefix)
        if self.trace is not None:
            # The last deferral before the flush is its direct cause.
            self._defer_cause[peer] = self.trace.context

    def pending_prefixes(self, peer: str) -> Set[str]:
        return set(self._dirty.get(peer, ()))

    def has_pending(self) -> bool:
        """True when any peer still has deferred prefixes."""
        return any(self._dirty.values())

    def cancel_all_timers(self) -> int:
        """Disarm every pending MRAI timer; returns how many were pending.

        Deferred prefixes stay recorded, so a later :meth:`note_sent`
        re-arms normally. This is the quiesce hook for session teardown
        or limiter replacement — an armed timer surviving its limiter
        would flush ``_dirty`` state nobody owns (timerlint TIM001's
        runtime shape).
        """
        cancelled = 0
        for timer in self._timers.values():
            if timer.is_pending:
                timer.cancel()
                cancelled += 1
        return cancelled

    def reset_peer(self, peer: str) -> None:
        """Forget all MRAI state for ``peer``: disarm its timer and drop
        any deferred prefixes.

        Used when the session to ``peer`` is destroyed by a crash rather
        than bounced: deferred prefixes belong to the dead session (a
        restarted peer gets a full re-advertisement instead), so keeping
        them — as :meth:`cancel_all_timers` deliberately does — would
        replay stale deltas into the fresh session.
        """
        timer = self._timers.get(peer)
        if timer is not None and timer.is_pending:
            timer.cancel()
        self._dirty.pop(peer, None)
        self._defer_cause.pop(peer, None)

    def _expired(self, peer: str) -> None:
        dirty = self._dirty.pop(peer, None)
        if not dirty:
            return
        trace = self.trace
        if trace is not None:
            flush_rid = trace.emit(
                "mrai_flush",
                self._engine.now,
                node=self.owner,
                cause=self._defer_cause.pop(peer, None),
                peer=peer,
                prefixes=sorted(dirty),
            )
            trace.set_context(flush_rid)
        sent = self._flush(peer, dirty)
        if sent:
            self.note_sent(peer)
