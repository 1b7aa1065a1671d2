"""Point-to-point links with delay, jitter, and optional impairments.

A link connects exactly two nodes and delivers messages in both
directions. Delivery delay is ``base_delay`` plus a uniform jitter sample;
per-direction FIFO ordering is enforced (a message never overtakes an
earlier message in the same direction), matching TCP-based BGP sessions,
where updates between two peers are strictly ordered.

Fault injection can additionally impair a link (see
:meth:`Link.set_impairment`): probabilistic message loss, duplication,
and extra delivery jitter, all drawn from a dedicated
``fault:link:<a>-<b>`` RNG stream so that un-impaired runs draw exactly
the same base-jitter sequence whether or not the faults package is in
play. Every dropped message — lost to an impairment, sent into a down
link, or in flight when the link failed — is reported to the network's
drop path instead of silently vanishing.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.net.message import Message
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network


@dataclass(frozen=True)
class LinkConfig:
    """Delay model for a link.

    ``base_delay`` is the fixed one-way propagation delay in seconds;
    each delivery adds a uniform sample from ``[0, jitter]``. The small
    default values correspond to the intra-simulation message latencies of
    SSFNet-style BGP studies, where protocol timers (MRAI, reuse timers)
    dominate dynamics and wire latency is milliseconds.
    """

    base_delay: float = 0.01
    jitter: float = 0.04

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ConfigurationError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")


class Link:
    """A bidirectional link between two named nodes."""

    def __init__(
        self,
        network: "Network",
        a: str,
        b: str,
        config: LinkConfig,
        engine: Engine,
        rng: RngRegistry,
    ) -> None:
        if a == b:
            raise ConfigurationError(f"link endpoints must differ, got {a!r} twice")
        self._network = network
        self.a = a
        self.b = b
        self.config = config
        self._engine = engine
        self._rng_registry = rng
        self._rng = rng.stream(f"link:{min(a, b)}-{max(a, b)}")
        #: Lazily created when the link is first impaired, so un-impaired
        #: links never register the stream (and never draw from it).
        self._fault_rng = None
        self.up = True
        self.messages_carried = 0
        #: Messages this link dropped (down at send, down in flight, or
        #: lost to an active impairment) — the counterpart counter to
        #: ``messages_carried``.
        self.messages_dropped = 0
        #: Active impairment probabilities / extra jitter; zero = clean.
        self.loss_rate = 0.0
        self.duplicate_rate = 0.0
        self.extra_jitter = 0.0
        #: True while any impairment (loss/duplication/jitter) is active.
        self.impaired = False
        # Earliest time the next message towards each endpoint may be
        # delivered, to preserve per-direction FIFO order.
        self._next_free: Dict[str, float] = {}
        # Per-destination delivery batches, created on first use when the
        # network coalesces deliveries (see _DeliveryBatch).
        self._batches: Dict[str, "_DeliveryBatch"] = {}

    def other_end(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise SimulationError(f"{node!r} is not an endpoint of link {self.a}-{self.b}")

    def set_up(self, up: bool) -> None:
        """Mark the link up or down. Messages sent while down are dropped."""
        self.up = up

    # ------------------------------------------------------------------
    # impairments (fault injection)
    # ------------------------------------------------------------------

    def set_impairment(
        self,
        loss: float = 0.0,
        duplicate: float = 0.0,
        extra_jitter: float = 0.0,
    ) -> None:
        """Impair the link: per-message loss / duplication probability and
        additional uniform delivery jitter in seconds.

        All draws come from the link's dedicated ``fault:link:...`` RNG
        stream, so enabling an impairment never perturbs the base jitter
        sequence of other links (or of this link's un-impaired sends).
        """
        if not (0.0 <= loss <= 1.0):
            raise ConfigurationError(f"loss must be in [0, 1], got {loss}")
        if not (0.0 <= duplicate <= 1.0):
            raise ConfigurationError(f"duplicate must be in [0, 1], got {duplicate}")
        if extra_jitter < 0.0:
            raise ConfigurationError(f"extra_jitter must be >= 0, got {extra_jitter}")
        self.loss_rate = loss
        self.duplicate_rate = duplicate
        self.extra_jitter = extra_jitter
        self.impaired = loss > 0.0 or duplicate > 0.0 or extra_jitter > 0.0
        if self.impaired and self._fault_rng is None:
            key = f"fault:link:{min(self.a, self.b)}-{max(self.a, self.b)}"
            self._fault_rng = self._rng_registry.stream(key)

    def clear_impairment(self) -> None:
        """Restore clean delivery (keeps the fault stream's position)."""
        self.loss_rate = 0.0
        self.duplicate_rate = 0.0
        self.extra_jitter = 0.0
        self.impaired = False

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------

    def send(self, src: str, payload: object) -> Message:
        """Send ``payload`` from ``src`` to the other endpoint.

        Returns the in-flight :class:`Message`. If the link is down the
        message is created but dropped (never delivered), which is how a
        failed physical link behaves from the sender's perspective; the
        drop is reported through the network's drop path.
        """
        dst = self.other_end(src)
        now = self._engine.now
        message = Message(src, dst, payload, sent_at=now)
        trace = self._network.trace
        if trace is not None:
            # The one place a send is recorded — before any drop or
            # duplication, so both can name it as their cause.
            trace.note_send(message, now)
        if not self.up:
            self._drop(message, "link-down")
        elif self.impaired:
            self._send_impaired(message)
        else:
            self._schedule_delivery(message, self._base_delay())
        return message

    def _base_delay(self) -> float:
        # uniform(0.0, jitter) minus its frame: same draw, same float.
        return self.config.base_delay + self.config.jitter * self._rng.random()

    def _send_impaired(self, message: Message) -> None:
        """Ship ``message`` through the active impairment: it is lost, or
        scheduled exactly once plus once more per duplication."""
        rng = self._fault_rng
        assert rng is not None  # set_impairment created it
        if self.loss_rate > 0.0 and rng.random() < self.loss_rate:
            self._drop(message, "loss")
            return
        self._schedule_delivery(message, self._impaired_delay())
        if self.duplicate_rate > 0.0 and rng.random() < self.duplicate_rate:
            copy = Message(
                message.src,
                message.dst,
                message.payload,
                sent_at=message.sent_at,
                trace_id=message.trace_id,
            )
            self._schedule_delivery(copy, self._impaired_delay())

    def _impaired_delay(self) -> float:
        delay = self._base_delay()
        if self.extra_jitter > 0.0:
            delay += self._fault_rng.uniform(0.0, self.extra_jitter)
        return delay

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        dst = message.dst
        deliver_at = message.sent_at + delay
        floor = self._next_free.get(dst, 0.0)
        if deliver_at < floor:
            deliver_at = floor
        self._next_free[dst] = deliver_at
        if self._network.coalesce_delivery:
            batch = self._batches.get(dst)
            if batch is None:
                batch = _DeliveryBatch(self, dst)
                self._batches[dst] = batch
            batch.enqueue(message, deliver_at)
            return
        # A partial, not a lambda: in-flight messages stay picklable.
        self._engine.schedule_at(
            deliver_at,
            functools.partial(self._deliver, message),
            actor=dst,
            tag="deliver",
        )

    def _deliver(self, message: Message) -> None:
        if not self.up:
            # The link failed while the message was in flight; observable
            # through the drop path rather than silently vanishing.
            self._drop(message, "link-down-inflight")
            return
        message.delivered_at = self._engine.now
        self.messages_carried += 1
        self._network.deliver(message)

    def _drop(self, message: Message, reason: str) -> None:
        self.messages_dropped += 1
        self._network.note_drop(message, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"Link({self.a}-{self.b}, {state}, carried={self.messages_carried})"


class _DeliveryBatch:
    """One direction's pending deliveries behind a single engine event.

    The per-direction FIFO floor in :meth:`Link._schedule_delivery` makes
    delivery times monotone non-decreasing within a direction, so the
    deque is always sorted by construction. The batch keeps at most one
    engine event armed — for the head's delivery time — and drains every
    message whose time has arrived when it fires, then re-arms for the
    new head. A flap storm that previously scheduled one heap entry per
    (message, direction) now costs one heap entry per direction per
    distinct wake-up time: O(edges) per storm instant instead of
    O(edges·updates).

    Message delivery *times* are identical to per-message scheduling;
    only the engine-sequence interleaving of same-instant deliveries can
    differ, which is why coalescing is opt-in per scenario rather than
    a global default (committed figure digests encode the historical
    interleaving).
    """

    __slots__ = ("_link", "_engine", "dst", "pending", "armed_for")

    def __init__(self, link: Link, dst: str) -> None:
        self._link = link
        self._engine = link._engine
        self.dst = dst
        self.pending: Deque[Tuple[float, Message]] = deque()
        #: Delivery time the armed engine event will fire at, or None
        #: when no event is armed (empty queue).
        self.armed_for: Optional[float] = None

    def enqueue(self, message: Message, deliver_at: float) -> None:
        self.pending.append((deliver_at, message))
        if self.armed_for is None:
            self._arm(deliver_at)

    def _arm(self, when: float) -> None:
        self.armed_for = when
        self._engine.schedule_at(when, self._fire, actor=self.dst, tag="deliver")

    def _fire(self) -> None:
        now = self._engine.now
        pending = self.pending
        deliver = self._link._deliver
        # armed_for stays set during the drain: a reentrant enqueue at
        # the current instant (a neighbour reacting to one of these
        # deliveries) must join this drain rather than arm a second
        # event for the same time.
        while pending and pending[0][0] <= now:
            deliver(pending.popleft()[1])
        if pending:
            self._arm(pending[0][0])
        else:
            self.armed_for = None
