"""The envelope carried by links.

A :class:`Message` records who sent it, who should receive it, and an
opaque payload (for us, a BGP update). Send/delivery timestamps are filled
in by the link so the metrics layer can measure propagation without
reaching into the transport.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_message_ids = itertools.count(1)


class Message:
    """An in-flight unit of communication between two adjacent nodes.

    Slotted, with a hand-written ``__init__``: one is allocated per send.
    """

    __slots__ = (
        "src", "dst", "payload", "msg_id", "sent_at", "delivered_at", "trace_id"
    )

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        msg_id: Optional[int] = None,
        sent_at: Optional[float] = None,
        delivered_at: Optional[float] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        #: Id of this message's ``send`` trace record, stamped by the causal
        #: tracer so the delivery can name its cause (None when not tracing).
        self.trace_id = trace_id

    @property
    def latency(self) -> Optional[float]:
        """Propagation delay experienced, once delivered."""
        if self.sent_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message(#{self.msg_id} {self.src}->{self.dst} {self.payload!r})"
