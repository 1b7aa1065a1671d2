"""RFC-4724-style graceful restart: helper-side stale-route retention.

When a BGP speaker crashes, its neighbours normally treat every route
learned from it as implicitly withdrawn — a withdrawal wave that
propagates, triggers path exploration, and (with damping deployed)
charges penalties far from the failure. Graceful restart (RFC 4724)
avoids the wave: a *helper* neighbour keeps the crashed peer's routes in
its Adj-RIB-In marked **stale** — still usable by the decision process —
and arms a restart timer. If the peer comes back and re-announces a
route before the timer expires, the stale mark is simply cleared (a
same-path re-announcement classifies as a duplicate, so damping never
charges); whatever is still stale when the timer fires is withdrawn then.

This module holds the helper-side state machine,
:class:`GracefulRestartHelper`, owned by each
:class:`~repro.bgp.router.BgpRouter`; whether GR applies to a given
crash is decided by the *crashed* peer's advertised
:class:`GracefulRestartConfig` (carried through
:meth:`repro.net.network.Network.crash_router`). The damping interaction
this enables — does GR suppress or amplify secondary charging? — is the
experiment :mod:`repro.experiments.gr_faults` runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.timers import Timer

#: Helper callback fired when a peer's restart timer expires with routes
#: still stale: ``f(peer, sorted_stale_prefixes, trace_cause_id)``.
StaleExpiryCallback = Callable[[str, List[str], Optional[int]], None]


@dataclass(frozen=True)
class GracefulRestartConfig:
    """Graceful-restart capability advertised by one router.

    ``restart_time`` is RFC 4724's Restart Time: how long helpers retain
    this router's routes as stale before flushing them. The default
    matches the 120 s commonly shipped by implementations.
    """

    restart_time: float = 120.0

    def __post_init__(self) -> None:
        if self.restart_time <= 0:
            raise ConfigurationError(
                f"restart_time must be > 0, got {self.restart_time}"
            )


class _PeerRestartState:
    """Helper-side state for one crashed peer."""

    __slots__ = ("stale", "timer", "trace_cause")

    def __init__(self, timer: Timer) -> None:
        #: Prefixes still marked stale (retained but not yet refreshed).
        self.stale: set = set()
        self.timer = timer
        #: Trace-record id of the crash/fault that started the hold
        #: (causal parent of the eventual stale-expiry withdrawals).
        self.trace_cause: Optional[int] = None


class GracefulRestartHelper:
    """Per-router helper-mode bookkeeping, one restart timer per peer.

    State machine per peer::

        idle --peer_crashed--> helping (routes stale, timer armed)
        helping --note_update(last stale prefix)--> idle (timer cancelled)
        helping --timer expiry--> idle (remaining stale flushed via
                                        the owner's expiry callback)

    The helper never touches RIBs itself: the owning router marks which
    prefixes entered helper mode and processes the expiry flush, so all
    Loc-RIB mutation stays in :class:`~repro.bgp.router.BgpRouter`.
    """

    def __init__(
        self,
        engine: Engine,
        owner: str,
        on_stale_expired: StaleExpiryCallback,
    ) -> None:
        self._engine = engine
        self.owner = owner
        self._on_stale_expired = on_stale_expired
        self._peers: Dict[str, _PeerRestartState] = {}
        #: Stale-expiry flushes that actually withdrew something.
        self.expiry_flushes = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def helping(self, peer: str) -> bool:
        """True while ``peer``'s routes are being retained as stale."""
        return peer in self._peers

    def is_stale(self, peer: str, prefix: str) -> bool:
        state = self._peers.get(peer)
        return state is not None and prefix in state.stale

    def stale_count(self) -> int:
        """Total stale (peer, prefix) entries currently retained."""
        return sum(len(state.stale) for state in self._peers.values())

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def peer_crashed(
        self,
        peer: str,
        prefixes: Iterable[str],
        config: GracefulRestartConfig,
        trace_cause: Optional[int] = None,
    ) -> int:
        """Enter helper mode for ``peer``: retain ``prefixes`` as stale
        and (re)arm the restart timer. Returns the stale count."""
        state = self._peers.get(peer)
        if state is None:
            # functools.partial rather than a lambda so idle helpers stay
            # picklable for warm-state snapshots.
            timer = Timer(
                self._engine,
                functools.partial(self._expired, peer),
                name=f"gr-stale:{self.owner}:{peer}",
                actor=self.owner,
                tag="gr-stale",
            )
            state = _PeerRestartState(timer)
            self._peers[peer] = state
        state.stale.update(prefixes)
        state.trace_cause = trace_cause
        if not state.stale:
            # Nothing to retain: don't arm a timer that would fire into
            # an empty flush (and drop the empty helper state).
            del self._peers[peer]
            return 0
        state.timer.reschedule(config.restart_time)
        return len(state.stale)

    def note_update(self, peer: str, prefix: str) -> None:
        """An update (announcement or withdrawal) from ``peer`` refreshed
        ``prefix``: clear its stale mark. When the last stale prefix is
        refreshed the helper leaves helper mode and disarms the timer."""
        state = self._peers.get(peer)
        if state is None:
            return
        state.stale.discard(prefix)
        if not state.stale:
            state.timer.cancel()
            del self._peers[peer]

    def cancel_all_timers(self) -> int:
        """Disarm every pending restart timer and forget helper state;
        returns how many timers were pending (quiesce hook — without it
        a discarded helper's timers would fire into dead state, the
        runtime shape of timerlint TIM001)."""
        cancelled = 0
        for state in self._peers.values():
            if state.timer.is_pending:
                state.timer.cancel()
                cancelled += 1
        self._peers.clear()
        return cancelled

    def _expired(self, peer: str) -> None:
        state = self._peers.pop(peer, None)
        if state is None or not state.stale:
            return
        self.expiry_flushes += 1
        self._on_stale_expired(peer, sorted(state.stale), state.trace_cause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GracefulRestartHelper({self.owner!r}, "
            f"helping={sorted(self._peers)}, stale={self.stale_count()})"
        )


__all__ = [
    "GracefulRestartConfig",
    "GracefulRestartHelper",
    "StaleExpiryCallback",
]
