"""Discrete-event simulation substrate.

This package provides the deterministic event engine that every other
subsystem is built on: a priority-queue scheduler (:class:`Engine`),
cancellable timers (:class:`Timer`), and named, independently-seeded
random-number streams (:class:`RngRegistry`).

The engine is intentionally minimal — time is a float number of simulated
seconds, events are plain callables, and ties in firing time are broken by
insertion order so that runs with the same seed are bit-for-bit
reproducible. One loop pops the heap and fires callbacks; whatever wants
to watch (the :class:`TieDetector`, the watchdog, the causal tracer)
subscribes through ``Engine.add_observer``.
"""

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.events import ScheduleTie, TieDetector
from repro.sim.rng import RngRegistry
from repro.sim.timers import Timer, TimerAudit, TimerAuditViolation, TimerState

__all__ = [
    "Engine",
    "ScheduledEvent",
    "ScheduleTie",
    "TieDetector",
    "RngRegistry",
    "Timer",
    "TimerAudit",
    "TimerAuditViolation",
    "TimerState",
]
