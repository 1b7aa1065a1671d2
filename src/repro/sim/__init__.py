"""Discrete-event simulation substrate.

This package provides the deterministic event engine that every other
subsystem is built on: a priority-queue scheduler (:class:`Engine`),
cancellable timers (:class:`Timer`), and named, independently-seeded
random-number streams (:class:`RngRegistry`).

The engine is intentionally minimal — time is a float number of simulated
seconds, events are plain callables, and ties in firing time are broken by
insertion order so that runs with the same seed are bit-for-bit
reproducible.
"""

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.events import ScheduleTie
from repro.sim.rng import RngRegistry
from repro.sim.timers import Timer, TimerAudit, TimerAuditViolation, TimerState

__all__ = [
    "Engine",
    "ScheduledEvent",
    "ScheduleTie",
    "RngRegistry",
    "Timer",
    "TimerAudit",
    "TimerAuditViolation",
    "TimerState",
]
