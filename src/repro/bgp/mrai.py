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


class _PeerState:
    """What the limiter keeps for one peer, behind one lookup: the timer,
    the prefixes deferred since it was armed (a set allocated by the first
    ``defer`` — most peers of a large graph never defer) and the trace id
    of the record that last deferred, the eventual flush's causal parent."""

    __slots__ = ("timer", "dirty", "defer_cause")

    def __init__(self, timer: Timer) -> None:
        self.timer = timer
        self.dirty: Optional[Set[str]] = None
        self.defer_cause: Optional[int] = None


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
        #: Created by the first ``note_sent`` to the peer; a disabled
        #: limiter never creates one.
        self._peers: Dict[str, _PeerState] = {}
        #: Causal tracer observing this limiter (set by Tracer.attach).
        self.trace: Optional["Tracer"] = None

    def may_send_now(self, peer: str) -> bool:
        """True when an announcement to ``peer`` may go out immediately."""
        state = self._peers.get(peer)
        return state is None or state.timer.state is not TimerState.PENDING

    def note_sent(self, peer: str) -> None:
        """Record that an announcement was just sent to ``peer`` and start
        the hold-off timer."""
        config = self.config
        state = self._peers.get(peer)
        if state is None:
            if not config.enabled:
                return
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
            state = self._peers[peer] = _PeerState(timer)
        # What random.uniform(low, high) evaluates, minus its frame: same
        # stream, same draw, the same float bit for bit.
        low = config.jitter_low
        state.timer.reschedule(
            config.base * (low + (config.jitter_high - low) * self._rng.random())
        )

    def defer(self, peer: str, prefix: str) -> None:
        """Mark ``prefix`` dirty for ``peer``; it will be re-evaluated when
        the peer's timer expires.

        Only valid while the peer is held off (``may_send_now`` False) —
        deferring with no pending timer would strand the prefix, since
        nothing would ever flush it.
        """
        state = self._peers.get(peer)
        if state is None or state.timer.state is not TimerState.PENDING:
            raise TimerError(
                f"{self.owner}: defer({peer!r}, {prefix!r}) while the peer "
                f"may send — send immediately instead"
            )
        if state.dirty is None:
            state.dirty = {prefix}
        else:
            state.dirty.add(prefix)
        if self.trace is not None:
            # The last deferral before the flush is its direct cause.
            state.defer_cause = self.trace.context

    def pending_prefixes(self, peer: str) -> Set[str]:
        state = self._peers.get(peer)
        return set(state.dirty) if state is not None and state.dirty else set()

    def has_pending(self) -> bool:
        """True when any peer still has deferred prefixes."""
        return any(state.dirty for state in self._peers.values())

    def cancel_all_timers(self) -> int:
        """Disarm every pending MRAI timer; returns how many were pending.

        Deferred prefixes stay recorded, so a later :meth:`note_sent`
        re-arms normally. This is the quiesce hook for limiter
        replacement — an armed timer surviving its limiter would flush
        dirty state nobody owns (timerlint TIM001's runtime shape).
        """
        cancelled = 0
        for state in self._peers.values():
            if state.timer.is_pending:
                state.timer.cancel()
                cancelled += 1
        return cancelled

    def reset_peer(self, peer: str) -> None:
        """Forget all MRAI state for ``peer``: disarm its timer and drop
        any deferred prefixes.

        Used when the session to ``peer`` goes away (link down, session
        reset, peer crash): deferred prefixes belong to the dead session
        (the next one starts with a full re-advertisement), so keeping
        them — as :meth:`cancel_all_timers` deliberately does — would
        replay stale deltas into the fresh session.
        """
        state = self._peers.get(peer)
        if state is not None:
            state.timer.cancel()
            state.dirty = None
            state.defer_cause = None

    def _expired(self, peer: str) -> None:
        state = self._peers[peer]
        dirty = state.dirty
        if not dirty:
            return
        state.dirty = None
        trace = self.trace
        if trace is not None:
            flush_rid = trace.emit(
                "mrai_flush",
                self._engine.now,
                node=self.owner,
                cause=state.defer_cause,
                peer=peer,
                prefixes=sorted(dirty),
            )
            state.defer_cause = None
            trace.set_context(flush_rid)
        if self._flush(peer, dirty):
            self.note_sent(peer)
