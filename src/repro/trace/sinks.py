"""Trace sinks: where a sealed trace goes.

The :class:`TraceSink` protocol decouples the instrumented hot path from
output concerns. The tracer buffers records in memory during the run and
hands the complete, id-ordered sequence to the sink exactly once at
:meth:`repro.trace.tracer.Tracer.close`; the sink returns the SHA-256
digest of the canonical JSONL document. Because the document is
canonical and written in one shot, digests — and for :class:`JsonlSink`,
the bytes on disk — are identical however the run was produced
(``--jobs 1`` vs ``--jobs 2``).

There is no discarding sink: a run that should not be traced passes no
tracer at all (``tracer=None``).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

from .records import render_jsonl

if TYPE_CHECKING:
    from .records import TraceRecord


def trace_digest(document: str) -> str:
    """SHA-256 hex digest of a canonical JSONL trace document."""
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class TraceSink(Protocol):
    """Destination for one sealed trace: ``write`` receives the complete
    id-ordered record sequence once and returns the document digest."""

    def write(self, records: Sequence["TraceRecord"]) -> str:
        """Consume the sealed trace; return its digest."""
        ...


class MemorySink:
    """Keep the sealed records (and digest) in memory for inspection."""

    def __init__(self) -> None:
        self.records: List["TraceRecord"] = []
        self.digest: Optional[str] = None

    def write(self, records: Sequence["TraceRecord"]) -> str:
        self.records = list(records)
        self.digest = trace_digest(render_jsonl(self.records))
        return self.digest


class JsonlSink:
    """Write the sealed trace to a JSONL file in one shot.

    The file contains exactly the canonical document, so its bytes (and
    hence its digest) are reproducible across hosts and worker layouts.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.digest: Optional[str] = None

    def write(self, records: Sequence["TraceRecord"]) -> str:
        document = render_jsonl(records)
        with open(self.path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(document)
        self.digest = trace_digest(document)
        return self.digest


__all__ = ["JsonlSink", "MemorySink", "TraceSink", "trace_digest"]
