"""The metrics collector.

One :class:`MetricsCollector` observes a whole simulation: it hooks the
network's message-delivery path (the paper counts "the total number of
updates observed in the network"), and each damping router's
suppression-state changes (the paper's "damped link count" — a node
suppressing routes from a neighbour counts as one damped link).

The collector is attached at the start of the *measured* episode — after
warm-up — so warm-up traffic never pollutes the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.bgp.messages import UpdateMessage
from repro.bgp.router import BgpRouter
from repro.core.damping import ReuseEvent
from repro.net.message import Message
from repro.net.network import Network
from repro.metrics.series import bin_counts, to_step_series
from repro.sim.events import ScheduleTie


class UpdateRecord(NamedTuple):
    """One observed update delivery (a tuple: one is kept per update)."""

    time: float
    src: str
    dst: str
    is_withdrawal: bool
    prefix: str = ""


@dataclass(frozen=True)
class DropRecord:
    """One observed message drop (down link, loss impairment, dead node)."""

    time: float
    src: str
    dst: str
    reason: str
    is_withdrawal: bool
    prefix: str = ""


class MetricsCollector:
    """Network-wide observation of one simulation episode."""

    def __init__(self) -> None:
        self.updates: List[UpdateRecord] = []
        #: Every dropped message (lost, on a down link, or addressed to a
        #: crashed node), in drop order.
        self.drops: List[DropRecord] = []
        #: Time-ordered ``(time, delta, router, peer)`` suppression changes
        #: (+1 on suppress, -1 on reuse).
        self.suppression_changes: List[Tuple[float, int, str, str]] = []
        #: Same-instant same-router event ties of the episode: the
        #: scenario's opt-in :class:`~repro.sim.events.TieDetector` list
        #: (empty unless ``ScenarioConfig.detect_schedule_ties`` is set).
        self.schedule_ties: List[ScheduleTie] = []
        self._routers: List[BgpRouter] = []
        self._network: Optional[Network] = None
        self._attached = False
        self.attach_time: float = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, network: Network, routers: Iterable[BgpRouter]) -> None:
        """Start observing ``network`` and the given routers' damping."""
        if self._attached:
            raise RuntimeError("collector already attached")
        self._attached = True
        self._network = network
        self.attach_time = network.engine.now
        network.add_delivery_hook(self._on_delivery)
        network.add_drop_hook(self._on_drop)
        for router in routers:
            self._routers.append(router)
            if router.damping is not None:
                router.damping.suppression_observers.append(
                    self._make_suppression_observer(router.name)
                )

    def _make_suppression_observer(self, router_name: str):
        def observer(time: float, peer: str, prefix: str, suppressed: bool) -> None:
            del prefix
            delta = 1 if suppressed else -1
            self.suppression_changes.append((time, delta, router_name, peer))

        return observer

    def _on_delivery(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, UpdateMessage):
            return
        assert message.delivered_at is not None
        # What the generated UpdateRecord.__new__ calls, minus its frame.
        record = (
            message.delivered_at,
            message.src,
            message.dst,
            payload.as_path is None,
            payload.prefix,
        )
        self.updates.append(tuple.__new__(UpdateRecord, record))

    def _on_drop(self, message: Message, reason: str) -> None:
        payload = message.payload
        if not isinstance(payload, UpdateMessage):
            return
        assert self._network is not None  # hooks only exist after attach
        self.drops.append(
            DropRecord(
                time=self._network.engine.now,
                src=message.src,
                dst=message.dst,
                reason=reason,
                is_withdrawal=payload.is_withdrawal,
                prefix=payload.prefix,
            )
        )

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------

    @property
    def message_count(self) -> int:
        """Total updates observed (the paper's message-count metric)."""
        return len(self.updates)

    @property
    def drop_count(self) -> int:
        """Total update messages dropped during the episode."""
        return len(self.drops)

    def drops_by_reason(self) -> Dict[str, int]:
        """Drop counts keyed by drop reason (sorted)."""
        counts: Dict[str, int] = {}
        for record in self.drops:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def update_times(self) -> List[float]:
        return [u.time for u in self.updates]

    @property
    def last_update_time(self) -> Optional[float]:
        if not self.updates:
            return None
        return self.updates[-1].time

    def convergence_time(self, reference_time: float) -> float:
        """Seconds from ``reference_time`` (the origin's final
        announcement) to the last observed update."""
        last = self.last_update_time
        if last is None or last <= reference_time:
            return 0.0
        return last - reference_time

    # ------------------------------------------------------------------
    # figure series
    # ------------------------------------------------------------------

    def update_series(self, bin_width: float = 5.0, start: float = 0.0,
                      end: Optional[float] = None) -> List[Tuple[float, int]]:
        """Update deliveries per bin (Figure 10 top row)."""
        return bin_counts(self.update_times, bin_width, start=start, end=end)

    def damped_link_deltas(self) -> List[Tuple[float, int]]:
        return [(time, delta) for time, delta, _, _ in self.suppression_changes]

    def damped_link_series(self) -> List[Tuple[float, int]]:
        """Number of suppressed (router, peer) entries over time
        (Figure 10 bottom row)."""
        return to_step_series(self.damped_link_deltas())

    def peak_damped_links(self) -> int:
        series = self.damped_link_series()
        return max((count for _, count in series), default=0)

    @property
    def total_suppressions(self) -> int:
        """Number of suppression episodes started during the run."""
        return sum(1 for _, delta, _, _ in self.suppression_changes if delta > 0)

    def routers_with_suppressions(self) -> List[str]:
        return sorted({r for _, delta, r, _ in self.suppression_changes if delta > 0})

    # ------------------------------------------------------------------
    # reuse-timer observations (via the routers' damping managers)
    # ------------------------------------------------------------------

    def reuse_events(self) -> List[ReuseEvent]:
        """Every reuse-timer expiry across all routers, in time order."""
        events: List[ReuseEvent] = []
        for router in self._routers:
            if router.damping is not None:
                events.extend(router.damping.reuse_events)
        events.sort(key=lambda e: e.time)
        return events

    def noisy_reuse_count(self) -> int:
        return sum(1 for e in self.reuse_events() if e.noisy)

    def silent_reuse_count(self) -> int:
        return sum(1 for e in self.reuse_events() if not e.noisy)

    def secondary_charge_count(self) -> int:
        """Total reuse-timer postponements observed while suppressed —
        the footprint of secondary charging."""
        total = 0
        for router in self._routers:
            if router.damping is None:
                continue
            for record in router.damping.suppressions:
                total += len(record.recharges)
        return total

    # ------------------------------------------------------------------
    # schedule-race observations (tie detector, opt-in)
    # ------------------------------------------------------------------

    @property
    def tie_count(self) -> int:
        """Number of same-instant same-router ties observed."""
        return len(self.schedule_ties)

    def ties_by_tag_pair(self) -> Dict[Tuple[str, str], int]:
        """Tie counts keyed by the (anchor, tied) event-tag pair — the
        granularity at which benign-tie allowlists are expressed."""
        counts: Dict[Tuple[str, str], int] = {}
        for tie in self.schedule_ties:
            counts[tie.tags] = counts.get(tie.tags, 0) + 1
        return dict(sorted(counts.items()))

    def suppression_records(self) -> Dict[str, list]:
        """Per-router suppression episodes (for detailed analysis)."""
        return {
            router.name: list(router.damping.suppressions)
            for router in self._routers
            if router.damping is not None
        }
