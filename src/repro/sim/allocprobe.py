"""Per-sub-phase allocation accounting for engine events.

Attach an :class:`AllocationProbe` to an engine (``simulate
--audit-alloc``) and every executed event is bracketed with tracemalloc
samples, accumulating *net traced bytes* and allocation-size peaks per
protocol sub-phase, picked from the event's tag through
:data:`TAG_PHASE_MAP`. A hot path that keeps allocating per event —
closures, outcome objects without ``__slots__``, per-call dict displays
— shows up as a per-event byte rate;
``tests/integration/test_perflint_oracle.py`` holds the probe to
hazard/fix pairs of exactly those shapes.

tracemalloc measures *live* traced memory, so churn that is immediately
garbage-collected nets out to ~zero; the oracle therefore compares
retained allocations (hazard fixtures append their per-event garbage to
a results list) and per-event peaks rather than raw totals.

The probe reads tracemalloc, never the simulated clock, and is strictly
opt-in (``Engine.set_phase_probe``).
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List, Optional

#: Engine event tag -> sub-phase label. Tags come from the scheduling
#: sites (``deliver`` on link delivery, ``reuse`` on damping reuse
#: timers, ``mrai`` on flush timers, ``flap``/``fault``/``gr-stale`` on
#: workload and fault machinery).
TAG_PHASE_MAP: Dict[str, str] = {
    "deliver": "decision_process",
    "reuse": "penalty_decay",
    "mrai": "mrai_flush",
    "flap": "workload",
    "fault": "workload",
    "gr-stale": "workload",
}

#: Label for everything else the dispatcher executes (untagged events
#: and tags the map does not name).
PHASE_TIMER_DISPATCH = "timer_dispatch"


class AllocationProbe:
    """Per-sub-phase net-allocation sampler (engine ``PhaseProbe``)."""

    __slots__ = (
        "_net_bytes",
        "_peak_bytes",
        "_events",
        "_before",
        "_started_tracing",
    )

    def __init__(self) -> None:
        self._net_bytes: Dict[str, int] = {}
        self._peak_bytes: Dict[str, int] = {}
        self._events: Dict[str, int] = {}
        self._before = 0
        self._started_tracing = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Begin tracing (idempotent; remembers whether it owns the
        tracemalloc session so :meth:`stop` never tears down a session
        someone else started)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    def stop(self) -> None:
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False

    def __enter__(self) -> "AllocationProbe":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- engine PhaseProbe protocol ------------------------------------

    def before(self) -> None:
        if tracemalloc.is_tracing():
            self._before = tracemalloc.get_traced_memory()[0]

    def after(self, tag: Optional[str]) -> None:
        if not tracemalloc.is_tracing():
            return
        current = tracemalloc.get_traced_memory()[0]
        delta = current - self._before
        label = TAG_PHASE_MAP.get(tag, PHASE_TIMER_DISPATCH) if tag else (
            PHASE_TIMER_DISPATCH
        )
        self._net_bytes[label] = self._net_bytes.get(label, 0) + delta
        if delta > self._peak_bytes.get(label, 0):
            self._peak_bytes[label] = delta
        self._events[label] = self._events.get(label, 0) + 1

    # -- reporting -----------------------------------------------------

    @property
    def events_sampled(self) -> int:
        return sum(self._events.values())

    def net_bytes(self, label: Optional[str] = None) -> int:
        """Net retained bytes, for one sub-phase or over all of them."""
        if label is not None:
            return self._net_bytes.get(label, 0)
        return sum(self._net_bytes.values())

    def peak_event_bytes(self, label: Optional[str] = None) -> int:
        """Largest single-event net allocation seen."""
        if label is not None:
            return self._peak_bytes.get(label, 0)
        return max(self._peak_bytes.values(), default=0)

    def bytes_per_event(self, label: str) -> float:
        events = self._events.get(label, 0)
        if events == 0:
            return 0.0
        return self._net_bytes.get(label, 0) / events

    def report(self) -> List[Dict[str, object]]:
        """Per-sub-phase rows for the CLI / JSON export, sorted by label."""
        return [
            {
                "phase": label,
                "events": self._events.get(label, 0),
                "net_bytes": self._net_bytes.get(label, 0),
                "peak_event_bytes": self._peak_bytes.get(label, 0),
                "bytes_per_event": round(self.bytes_per_event(label), 1),
            }
            for label in sorted(self._net_bytes)
        ]

    def describe(self) -> str:
        """Human-readable summary for the ``--audit-alloc`` CLI output."""
        rows = self.report()
        if not rows:
            return "allocation audit: no events sampled"
        lines = ["allocation audit (net traced bytes per sub-phase):"]
        for row in rows:
            lines.append(
                "  {phase:<18} events={events:<8} net={net_bytes:<10} "
                "peak/event={peak_event_bytes:<8} "
                "avg/event={bytes_per_event}".format(**row)
            )
        return "\n".join(lines)


__all__ = ["TAG_PHASE_MAP", "AllocationProbe"]
