"""Causal attribution from trace DAGs — the repo's one secondary-charging
attribution.

Every :class:`~repro.trace.records.TraceRecord` names the record that
triggered it, so a penalty charge either descends from an origin
``flap``, from a ``reuse_expired`` somewhere upstream, or from an
injected ``fault`` — read off the DAG exactly, with no time window and
no "mixed" bucket.

Because ``cause_id`` is always smaller than ``id`` (causes are emitted
before their effects), the classification is a single linear pass: a
record's *root* is itself if it is a ``flap``, ``reuse_expired`` or
``fault``, and otherwise the root of its cause. A charge rooted in a
``reuse_expired`` is the paper's **secondary charging**; one rooted in
a ``flap`` is primary charging, split into *origin-flap* (the flap's own
withdrawal/re-announcement) and *path-exploration* (attribute changes
as routers walk alternate paths).

The same pass counts, per reuse expiry, the reuse-timer postponements
rooted in it: the paper's "after shocks", one router's reuse launching
an update wave that pushes back many other routers' reuse timers.

Muffling is equally direct: a ``reuse_expired`` with ``noisy=False`` is
a reuse timer that fired into silence, and having no descendants in the
DAG confirms it caused nothing downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.trace.records import TraceRecord

#: Root classes assigned by the linear DAG pass.
_ROOT_NONE = 0
_ROOT_FLAP = 1
_ROOT_REUSE = 2
_ROOT_FAULT = 3

#: The record kinds that start a causal chain, with their root class.
ROOT_KINDS = {"flap": _ROOT_FLAP, "reuse_expired": _ROOT_REUSE, "fault": _ROOT_FAULT}

#: Postponement labels by root class.
_POSTPONEMENT_LABELS = {
    _ROOT_REUSE: "reuse",
    _ROOT_FLAP: "flap",
    _ROOT_FAULT: "fault",
    _ROOT_NONE: "unattributed",
}

#: Charge classification labels (Table-1 vocabulary plus the injected
#: fault class introduced by the fault-injection subsystem).
CHARGE_CLASSES = (
    "origin-flap",
    "path-exploration",
    "secondary-charging",
    "fault-induced",
)


class AfterShock(NamedTuple):
    """One reuse expiry and the reuse-timer postponements rooted in it."""

    time: float
    router: str
    postponements: int


@dataclass
class CausalityReport:
    """Exact charge/postponement attribution for one trace."""

    records_total: int = 0
    counts_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Actually-charged ``charge`` records by root class.
    charges_by_class: Dict[str, int] = field(
        default_factory=lambda: {label: 0 for label in CHARGE_CLASSES}
    )
    #: ``reuse_postponed`` records by root class of their charge.
    postponements_by_class: Dict[str, int] = field(
        default_factory=lambda: {label: 0 for label in _POSTPONEMENT_LABELS.values()}
    )
    reuse_total: int = 0
    reuse_noisy: int = 0
    #: Muffled (silent) expiries — the paper's wasted reuse timers.
    reuse_muffled: int = 0
    #: Muffled expiries with no descendants in the DAG (should equal
    #: ``reuse_muffled``: silence means nothing downstream).
    reuse_muffled_childless: int = 0
    #: Every reuse expiry that postponed at least one reuse timer, largest
    #: fan-out first; the counts sum to ``postponements_by_class["reuse"]``.
    after_shocks: List[AfterShock] = field(default_factory=list)

    @property
    def charges_total(self) -> int:
        return sum(self.charges_by_class.values())

    @property
    def postponements_total(self) -> int:
        return sum(self.postponements_by_class.values())

    @property
    def secondary_fraction(self) -> float:
        """Fraction of reuse-timer postponements caused by reuse waves."""
        total = self.postponements_total
        if total == 0:
            return 0.0
        return self.postponements_by_class["reuse"] / total

    @property
    def secondary_charge_fraction(self) -> float:
        """Fraction of all penalty charges that are secondary charging."""
        total = self.charges_total
        if total == 0:
            return 0.0
        return self.charges_by_class["secondary-charging"] / total

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the ``rfd-repro trace`` output payload)."""
        return {
            "records_total": self.records_total,
            "counts_by_kind": dict(sorted(self.counts_by_kind.items())),
            "charges": {
                "total": self.charges_total,
                "by_class": dict(self.charges_by_class),
                "secondary_fraction": round(self.secondary_charge_fraction, 6),
            },
            "postponements": {
                "total": self.postponements_total,
                "by_class": dict(self.postponements_by_class),
                "secondary_fraction": round(self.secondary_fraction, 6),
            },
            "reuse": {
                "total": self.reuse_total,
                "noisy": self.reuse_noisy,
                "muffled": self.reuse_muffled,
                "muffled_childless": self.reuse_muffled_childless,
            },
            "after_shocks": [
                [round(row.time, 6), row.router, row.postponements]
                for row in self.after_shocks
            ],
        }


def analyze_trace(records: Sequence[TraceRecord]) -> CausalityReport:
    """Walk one trace DAG and attribute every charge and postponement.

    ``records`` must be a complete trace (ids 1..n in order, causes
    always preceding effects) as produced by the tracer or parsed back
    from a JSONL file; anything else raises ``ValueError`` naming the
    first offending record.
    """
    report = CausalityReport(records_total=len(records))
    # Indexed by record id - 1: root class, root record id, child count.
    root_class: List[int] = [_ROOT_NONE] * len(records)
    root_id: List[int] = [0] * len(records)
    child_count: List[int] = [0] * len(records)
    fanout: Dict[int, int] = {}

    for index, record in enumerate(records):
        record_id = index + 1
        if record.id != record_id:
            raise ValueError(
                f"trace record {record.id} at position {record_id}: "
                f"ids must run 1..n in order"
            )
        report.counts_by_kind[record.kind] = (
            report.counts_by_kind.get(record.kind, 0) + 1
        )
        cause = record.cause_id
        cause_class = _ROOT_NONE
        cause_root = 0
        if cause is not None:
            if not 0 < cause < record_id:
                raise ValueError(
                    f"trace record {record_id} names cause {cause}, "
                    f"which does not precede it"
                )
            cause_class = root_class[cause - 1]
            cause_root = root_id[cause - 1]
            child_count[cause - 1] += 1
        own_class = ROOT_KINDS.get(record.kind)
        if own_class is None:
            root_class[index] = cause_class
            root_id[index] = cause_root
        else:
            root_class[index] = own_class
            root_id[index] = record_id

        if record.kind == "charge" and record.data.get("charged", True):
            report.charges_by_class[_charge_class(record, cause_class)] += 1
        elif record.kind == "reuse_postponed":
            report.postponements_by_class[_POSTPONEMENT_LABELS[cause_class]] += 1
            if cause_class == _ROOT_REUSE:
                fanout[cause_root] = fanout.get(cause_root, 0) + 1

    for index, record in enumerate(records):
        if record.kind != "reuse_expired":
            continue
        report.reuse_total += 1
        if record.data.get("noisy"):
            report.reuse_noisy += 1
        else:
            report.reuse_muffled += 1
            if child_count[index] == 0:
                report.reuse_muffled_childless += 1
    shocks = (
        AfterShock(records[rid - 1].time, records[rid - 1].node or "", count)
        for rid, count in fanout.items()
    )
    report.after_shocks = sorted(
        shocks, key=lambda row: (-row.postponements, row.time, row.router)
    )
    return report


def _charge_class(record: TraceRecord, cause_class: int) -> str:
    if cause_class == _ROOT_REUSE:
        return "secondary-charging"
    if cause_class == _ROOT_FAULT:
        return "fault-induced"
    if record.data.get("kind") == "attribute_change":
        return "path-exploration"
    return "origin-flap"


def causal_chain(
    records: Sequence[TraceRecord], record_id: int
) -> List[TraceRecord]:
    """The cause chain of ``record_id``, root first (debugging/CLI aid)."""
    by_id: Dict[int, TraceRecord] = {record.id: record for record in records}
    chain: List[TraceRecord] = []
    current: Optional[int] = record_id
    while current is not None:
        record = by_id[current]
        chain.append(record)
        current = record.cause_id
    chain.reverse()
    return chain


__all__ = [
    "CHARGE_CLASSES",
    "ROOT_KINDS",
    "AfterShock",
    "CausalityReport",
    "analyze_trace",
    "causal_chain",
]
