"""Lightweight per-phase profiling for simulation runs.

:class:`PhaseProfiler` measures named phases (build, warm-up, analysis,
...) with wall-clock duration, engine-event deltas, and — when a
:class:`~repro.trace.tracer.Tracer` is supplied — per-tag event counts.
Schema v2 replaces the single opaque ``episode`` phase of v1 with
labelled *sub-phases* sampled per event by an :class:`EnginePhaseProbe`
attached to the engine: update delivery and best-path selection
(``decision_process``), reuse-timer firings and penalty arithmetic
(``penalty_decay``), MRAI flush rounds (``mrai_flush``), workload pulses
(``workload``), and everything else the dispatcher executes
(``timer_dispatch``); RIB-walking analysis phases are labelled
``rib_scan``. The report is exported as JSON next to ``perf.json`` so
the perf trajectory ships with a breakdown of *where* the time went.

Profiling reads the host clock, which is inherently non-deterministic;
that is acceptable here because the profile is an observability artifact,
never an input to the simulation (the detlint suppressions below mark
exactly those reads). The engine itself never reads the clock: it calls
the probe's ``before``/``after`` hooks and the probe does the timing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    from repro.sim.engine import Engine

    from .tracer import Tracer

#: Schema stamp for ``profile.json``.
PROFILE_SCHEMA_VERSION = 2

#: Canonical sub-phase labels (schema v2). ``PHASE_ROOTS`` in
#: :mod:`repro.lint.perf` maps each label to its root functions.
PHASE_DECISION_PROCESS = "decision_process"
PHASE_PENALTY_DECAY = "penalty_decay"
PHASE_RIB_SCAN = "rib_scan"
PHASE_MRAI_FLUSH = "mrai_flush"
PHASE_TIMER_DISPATCH = "timer_dispatch"
PHASE_WORKLOAD = "workload"

#: The sub-phases that correspond to protocol hot paths.
HOT_PHASE_LABELS = (
    PHASE_DECISION_PROCESS,
    PHASE_PENALTY_DECAY,
    PHASE_RIB_SCAN,
    PHASE_MRAI_FLUSH,
    PHASE_TIMER_DISPATCH,
)

#: Engine event tag -> sub-phase label. Tags come from the scheduling
#: sites (``deliver`` on link delivery, ``reuse`` on damping reuse
#: timers, ``mrai`` on flush timers, ``flap``/``fault``/``gr-stale`` on
#: workload and fault machinery); untagged events are engine-internal
#: dispatch work.
TAG_PHASE_MAP: Dict[str, str] = {
    "deliver": PHASE_DECISION_PROCESS,
    "reuse": PHASE_PENALTY_DECAY,
    "mrai": PHASE_MRAI_FLUSH,
    "flap": PHASE_WORKLOAD,
    "fault": PHASE_WORKLOAD,
    "gr-stale": PHASE_WORKLOAD,
}


class EnginePhaseProbe:
    """Per-event sub-phase sampler attached via ``engine.set_phase_probe``.

    The engine brackets every executed callback with :meth:`before` /
    :meth:`after`; the probe accumulates wall seconds and event counts
    per sub-phase label. All clock reads live here, outside the
    deterministic core.
    """

    __slots__ = ("_walls", "_events", "_start")

    def __init__(self) -> None:
        self._walls: Dict[str, float] = {}
        self._events: Dict[str, int] = {}
        self._start = 0.0

    def before(self) -> None:
        self._start = time.perf_counter()  # detlint: disable=DET001

    def after(self, tag: Optional[str]) -> None:
        wall = time.perf_counter() - self._start  # detlint: disable=DET001
        label = TAG_PHASE_MAP.get(tag, PHASE_TIMER_DISPATCH) if tag else (
            PHASE_TIMER_DISPATCH
        )
        self._walls[label] = self._walls.get(label, 0.0) + wall
        self._events[label] = self._events.get(label, 0) + 1

    def snapshot(self) -> List[Dict[str, object]]:
        """Per-sub-phase entries accumulated so far, sorted by label."""
        return [
            {
                "phase": label,
                "wall_seconds": round(self._walls[label], 6),
                "events": self._events.get(label, 0),
                "source": "engine_probe",
            }
            for label in sorted(self._walls)
        ]

    def reset(self) -> None:
        """Forget accumulated samples (between warm-up and the run)."""
        self._walls.clear()
        self._events.clear()


class PhaseProfiler:
    """Accumulates wall/event counters for named phases of one run."""

    def __init__(
        self,
        engine: Optional["Engine"] = None,
        tracer: Optional["Tracer"] = None,
        probe: Optional[EnginePhaseProbe] = None,
    ) -> None:
        self._engine = engine
        self._tracer = tracer
        self._probe = probe
        self._phases: List[Dict[str, object]] = []

    def bind(
        self,
        engine: Optional["Engine"] = None,
        tracer: Optional["Tracer"] = None,
        probe: Optional[EnginePhaseProbe] = None,
    ) -> None:
        """Late-bind the engine/tracer/probe (they often only exist after
        the profiler's first phase has built them)."""
        if engine is not None:
            self._engine = engine
        if tracer is not None:
            self._tracer = tracer
        if probe is not None:
            self._probe = probe

    def attach_probe(self, engine: "Engine") -> EnginePhaseProbe:
        """Create an :class:`EnginePhaseProbe`, install it on ``engine``,
        and fold its sub-phases into this profiler's report."""
        probe = EnginePhaseProbe()
        engine.set_phase_probe(probe)
        self.bind(engine=engine, probe=probe)
        return probe

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Measure one named phase (wall seconds + engine-event delta)."""
        events_before = self._engine.events_executed if self._engine else 0
        tags_before = dict(self._tracer.events_by_tag) if self._tracer else {}
        start = time.perf_counter()  # detlint: disable=DET001
        try:
            yield
        finally:
            wall = time.perf_counter() - start  # detlint: disable=DET001
            entry: Dict[str, object] = {
                "phase": name,
                "wall_seconds": round(wall, 6),
            }
            if self._engine is not None:
                entry["events"] = self._engine.events_executed - events_before
            if self._tracer is not None:
                deltas = {
                    tag: count - tags_before.get(tag, 0)
                    for tag, count in sorted(self._tracer.events_by_tag.items())
                    if count - tags_before.get(tag, 0)
                }
                if deltas:
                    entry["events_by_tag"] = deltas
            self._phases.append(entry)

    @property
    def phases(self) -> List[Dict[str, object]]:
        phases = list(self._phases)
        if self._probe is not None:
            phases.extend(self._probe.snapshot())
        return phases

    def report(self) -> Dict[str, object]:
        """The complete profile as a JSON-serialisable payload.

        Phases are aggregated by name (several ``phase("warm_up")``
        blocks merge into one entry), and the engine probe's sub-phase
        samples appear as first-class phases alongside the explicit ones.
        """
        aggregated = _aggregate_phases(self.phases)
        total_wall = 0.0
        for entry in aggregated:
            wall = entry["wall_seconds"]
            if isinstance(wall, (int, float)):
                total_wall += float(wall)
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "total_wall_seconds": round(total_wall, 6),
            "phases": aggregated,
        }

    def export(self, path: str) -> None:
        """Write the profile report to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.report(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _aggregate_phases(
    entries: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Merge entries sharing a phase name (first-seen order preserved)."""
    order: List[str] = []
    merged: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        name = str(entry.get("phase", ""))
        if name not in merged:
            order.append(name)
            merged[name] = dict(entry)
            continue
        target = merged[name]
        target["wall_seconds"] = round(
            float(target.get("wall_seconds", 0.0) or 0.0)
            + float(entry.get("wall_seconds", 0.0) or 0.0),
            6,
        )
        if "events" in entry or "events" in target:
            target["events"] = int(target.get("events", 0) or 0) + int(
                entry.get("events", 0) or 0
            )
        tags_entry = entry.get("events_by_tag")
        if isinstance(tags_entry, dict):
            tags_target = target.setdefault("events_by_tag", {})
            if isinstance(tags_target, dict):
                for tag, count in tags_entry.items():
                    tags_target[tag] = int(tags_target.get(tag, 0) or 0) + int(
                        count
                    )
    return [merged[name] for name in order]


__all__ = [
    "HOT_PHASE_LABELS",
    "PHASE_DECISION_PROCESS",
    "PHASE_MRAI_FLUSH",
    "PHASE_PENALTY_DECAY",
    "PHASE_RIB_SCAN",
    "PHASE_TIMER_DISPATCH",
    "PHASE_WORKLOAD",
    "PROFILE_SCHEMA_VERSION",
    "TAG_PHASE_MAP",
    "EnginePhaseProbe",
    "PhaseProfiler",
]
