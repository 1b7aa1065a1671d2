"""The causal trace record model.

A traced run is a sequence of :class:`TraceRecord` rows, one per
observable protocol action: origin flaps, update sends and deliveries,
penalty charges, suppression starts, reuse-timer arms / postponements /
expiries, MRAI flushes, and Loc-RIB changes. Every record carries a
monotonically assigned ``id`` (execution order, starting at 1) and an
optional ``cause_id`` pointing at the record that *triggered* it, so the
whole trace forms a DAG rooted at the origin's flap events:

``flap -> send -> recv -> charge -> reuse_postponed`` is the paper's
secondary charging spelled out edge by edge, and a ``reuse_expired``
record with ``noisy=False`` and no downstream children is a *muffled*
expiry — the remote reuse timer fired into silence.

Records serialise to a canonical JSON line (sorted keys, compact
separators, microsecond-rounded times), so two traces of the same
scenario are byte-identical however they were produced — the property
the ``--jobs`` determinism tests pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

#: Version stamped into exported trace files; bump on schema changes.
#: v2 added the fault-injection kinds (``fault``, ``drop``, ``gr_expire``).
TRACE_SCHEMA_VERSION = 2

#: The record kinds the instrumented components emit. ``data`` payloads
#: are kind-specific; see ``docs/OBSERVABILITY.md`` for the field tables.
KNOWN_KINDS: FrozenSet[str] = frozenset(
    {
        "flap",  # origin state change (the roots of the DAG)
        "send",  # update handed to a link
        "recv",  # update delivered to a router
        "drop",  # message dropped (down link, loss impairment, dead node)
        "charge",  # damping manager accounted for one update
        "suppress",  # suppression interval started
        "reuse_set",  # reuse timer armed at suppression start
        "reuse_postponed",  # reuse timer pushed out by a recharge
        "reuse_expired",  # reuse timer fired (noisy or muffled)
        "mrai_flush",  # per-peer MRAI timer released deferred updates
        "select",  # decision process changed the Loc-RIB
        "fault",  # injected fault action fired (roots, like flaps)
        "gr_expire",  # graceful-restart stale timer flushed retained routes
    }
)


def _round_time(value: float) -> float:
    """Microsecond-rounded time, matching :mod:`repro.metrics.digest`."""
    return round(value, 6)


@dataclass
class TraceRecord:
    """One causal trace row.

    ``id`` is the 1-based emission index; ``cause_id`` the id of the
    record that triggered this one (``None`` for roots). ``data`` holds
    kind-specific fields and is the only mutable part — a record may be
    amended (e.g. a ``reuse_expired`` learns its ``noisy`` flag after the
    decision process ran) until the trace is sealed.
    """

    id: int
    time: float
    kind: str
    node: Optional[str] = None
    cause_id: Optional[int] = None
    data: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        """The canonical JSON object for one JSONL line."""
        payload: Dict[str, object] = {
            "id": self.id,
            "t": _round_time(self.time),
            "kind": self.kind,
        }
        if self.node is not None:
            payload["node"] = self.node
        if self.cause_id is not None:
            payload["cause"] = self.cause_id
        if self.data:
            payload["data"] = self.data
        return payload


def canonical_line(record: TraceRecord) -> str:
    """Render one record as its canonical JSON line (no newline)."""
    return json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))


def render_jsonl(records: Iterable[TraceRecord]) -> str:
    """The full canonical JSONL document, records sorted by id."""
    ordered = sorted(records, key=lambda r: r.id)
    return "".join(canonical_line(record) + "\n" for record in ordered)


def record_from_json(payload: Dict[str, object]) -> TraceRecord:
    """Rebuild a :class:`TraceRecord` from one parsed JSONL object;
    ``ValueError`` names a record with a missing or mistyped field."""
    record_id = payload.get("id")
    time_value = payload.get("t")
    kind = payload.get("kind")
    if (
        not isinstance(record_id, int)
        or not isinstance(time_value, (int, float))
        or not isinstance(kind, str)
    ):
        raise ValueError(f"malformed trace record: {payload!r}")
    node = payload.get("node")
    cause = payload.get("cause")
    data = payload.get("data")
    return TraceRecord(
        id=record_id,
        time=float(time_value),
        kind=kind,
        node=node if isinstance(node, str) else None,
        cause_id=cause if isinstance(cause, int) else None,
        data=dict(data) if isinstance(data, dict) else {},
    )


def parse_jsonl(text: str) -> List[TraceRecord]:
    """Parse a JSONL trace document back into records (id order)."""
    records: List[TraceRecord] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        records.append(record_from_json(json.loads(line)))
    records.sort(key=lambda r: r.id)
    return records


__all__ = [
    "KNOWN_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TraceRecord",
    "canonical_line",
    "parse_jsonl",
    "record_from_json",
    "render_jsonl",
]
