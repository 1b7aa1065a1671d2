"""The tracer: record emission, causal context, and component wiring.

One :class:`Tracer` instance observes one measured episode. Instrumented
components (engine, network, routers, damping managers, MRAI limiters)
hold an optional reference to it and emit records through :meth:`emit`;
the tracer assigns ids, threads the *ambient causal context* — the id of
the record whose handling is currently executing — and buffers everything
in memory until :meth:`close` seals the trace into the sink.

Causal threading works in two ways:

* **explicitly**, when the cause is carried by an object: a ``send``
  record's id rides on :attr:`repro.net.message.Message.trace_id` so the
  matching ``recv`` names it; a suppression's ``reuse_set`` /
  ``reuse_postponed`` id is remembered by the damping entry so the
  eventual ``reuse_expired`` points at whichever record last (re)armed
  the timer;
* **ambiently**, via :attr:`context`: delivering a message, firing a
  reuse timer, flushing an MRAI timer, and executing a flap action each
  set the context to their own record id, and anything emitted while that
  handler runs (charges, selections, sends) inherits it as ``cause_id``.
  The engine observer clears the context at every event boundary so
  causes can never leak across unrelated events.

There is no disabled tracer: an untraced run passes ``tracer=None``, so
nothing is attached and the simulator runs its plain path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from .records import TraceRecord
from .sinks import MemorySink, TraceSink

if TYPE_CHECKING:
    from repro.bgp.router import BgpRouter
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.engine import Engine, ScheduledEvent


class Tracer:
    """Collects causal trace records for one simulation episode."""

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self._sink: TraceSink = sink if sink is not None else MemorySink()
        self._records: List[TraceRecord] = []
        #: Ambient causal context: id of the record whose handling is
        #: currently executing (None between causally-tracked events).
        self.context: Optional[int] = None
        #: Digest of the sealed trace (None until :meth:`close`).
        self.digest: Optional[str] = None

    # ------------------------------------------------------------------
    # record emission
    # ------------------------------------------------------------------

    @property
    def records(self) -> List[TraceRecord]:
        """The records emitted so far (live list view, id order)."""
        return self._records

    def emit(
        self,
        kind: str,
        time: float,
        /,
        node: Optional[str] = None,
        cause: Optional[int] = None,
        **fields: object,
    ) -> int:
        """Append one record and return its id (ids start at 1)."""
        record_id = len(self._records) + 1
        self._records.append(
            TraceRecord(
                id=record_id,
                time=time,
                kind=kind,
                node=node,
                cause_id=cause,
                data=dict(fields),
            )
        )
        return record_id

    def amend(self, record_id: int, **fields: object) -> None:
        """Update the data payload of an already-emitted record (used for
        facts only known after the fact, e.g. whether a reuse was noisy)."""
        self._records[record_id - 1].data.update(fields)

    def set_context(self, record_id: Optional[int]) -> None:
        """Make ``record_id`` the ambient cause for subsequent records."""
        self.context = record_id

    # ------------------------------------------------------------------
    # message hooks (called by Network)
    # ------------------------------------------------------------------

    def note_send(self, message: "Message", time: float) -> int:
        """Record an update send; the id rides on ``message.trace_id``."""
        payload = message.payload
        record_id = self.emit(
            "send",
            time,
            node=message.src,
            cause=self.context,
            dst=message.dst,
            prefix=getattr(payload, "prefix", None),
            withdrawal=bool(getattr(payload, "is_withdrawal", False)),
        )
        message.trace_id = record_id
        return record_id

    def note_recv(self, message: "Message", time: float) -> int:
        """Record an update delivery, caused by its ``send`` record, and
        make it the ambient context for the receiver's processing."""
        payload = message.payload
        record_id = self.emit(
            "recv",
            time,
            node=message.dst,
            cause=message.trace_id,
            src=message.src,
            prefix=getattr(payload, "prefix", None),
            withdrawal=bool(getattr(payload, "is_withdrawal", False)),
        )
        self.context = record_id
        return record_id

    def note_drop(self, message: "Message", time: float, reason: str) -> int:
        """Record a dropped message, caused by its ``send`` record (when
        one exists), so losses are explicit edges in the DAG instead of
        silently truncated branches."""
        payload = message.payload
        return self.emit(
            "drop",
            time,
            node=message.dst,
            cause=message.trace_id,
            src=message.src,
            prefix=getattr(payload, "prefix", None),
            withdrawal=bool(getattr(payload, "is_withdrawal", False)),
            reason=reason,
        )

    # ------------------------------------------------------------------
    # engine observer
    # ------------------------------------------------------------------

    def on_engine_event(self, event: "ScheduledEvent") -> None:
        """Engine observer: event boundaries reset the ambient context
        (handlers re-establish it)."""
        del event
        self.context = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(
        self,
        engine: "Engine",
        network: "Network",
        routers: Iterable["BgpRouter"],
    ) -> None:
        """Instrument a built simulation."""
        engine.add_observer(self.on_engine_event)
        network.trace = self
        for router in routers:
            router.trace = self
            if router.damping is not None:
                router.damping.trace = self
            router.mrai.trace = self

    # ------------------------------------------------------------------
    # sealing
    # ------------------------------------------------------------------

    def close(self) -> str:
        """Seal the trace into the sink; returns the document digest.
        Idempotent."""
        if self.digest is None:
            self.digest = self._sink.write(self._records)
        return self.digest


__all__ = ["Tracer"]
