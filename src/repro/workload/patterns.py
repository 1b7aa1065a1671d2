"""Irregular flap patterns.

The paper's evaluation uses a fixed flapping interval and notes that "in
reality unstable destinations exhibit different flapping patterns". The
companion technical report varies the interval; this module generalises
further with the patterns measurement studies report for unstable
prefixes:

- :func:`poisson_pattern` — memoryless up/down transitions (exponential
  holding times), the classic model for independently failing links,
- :func:`jittered_pattern` — the paper's regular pulses with bounded
  random perturbation per event,
- :func:`burst_pattern` — quiet periods separated by bursts of rapid
  pulses (maintenance-window-style instability).

All generators return a :class:`~repro.workload.pulses.PulseSchedule`
(events strictly increasing, final event an announcement) so they plug
directly into :meth:`repro.workload.scenarios.Scenario.run`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, check_number
from repro.sim.rng import RngRegistry
from repro.workload.pulses import PulseSchedule


def poisson_pattern(
    pulses: int,
    mean_down_time: float,
    mean_up_time: float,
    rng: random.Random,
    min_gap: float = 1.0,
) -> PulseSchedule:
    """``pulses`` down/up cycles with exponential holding times.

    ``mean_down_time`` is the expected outage length, ``mean_up_time``
    the expected stable period between outages. ``min_gap`` floors every
    holding time so events never coincide.
    """
    check_number("pulses", pulses, ge=0)
    check_number("mean_down_time", mean_down_time, gt=0)
    check_number("mean_up_time", mean_up_time, gt=0)
    check_number("min_gap", min_gap, gt=0)
    events: List[Tuple[float, str]] = []
    clock = 0.0
    for i in range(pulses):
        if i > 0:
            clock += max(min_gap, rng.expovariate(1.0 / mean_up_time))
        events.append((clock, "down"))
        clock += max(min_gap, rng.expovariate(1.0 / mean_down_time))
        events.append((clock, "up"))
    return PulseSchedule.from_events(events)


def jittered_pattern(
    pulses: int,
    flap_interval: float,
    jitter_fraction: float,
    rng: random.Random,
) -> PulseSchedule:
    """The paper's regular pulses with each event perturbed by up to
    ``±jitter_fraction × flap_interval`` (order preserved)."""
    check_number("jitter_fraction", jitter_fraction, ge=0, lt=0.5)
    base = PulseSchedule.regular(pulses, flap_interval)
    spread = jitter_fraction * flap_interval
    events: List[Tuple[float, str]] = []
    for offset, status in base.events:
        perturbed = offset + rng.uniform(-spread, spread)
        events.append((max(0.0, perturbed), status))
    # Jitter below half an interval preserves order, but clamp anyway.
    fixed: List[Tuple[float, str]] = []
    previous = -1.0
    for offset, status in events:
        offset = max(offset, previous + 1e-6)
        fixed.append((offset, status))
        previous = offset
    return PulseSchedule.from_events(fixed)


def burst_pattern(
    bursts: int,
    pulses_per_burst: int,
    intra_burst_interval: float,
    inter_burst_gap: float,
) -> PulseSchedule:
    """``bursts`` groups of rapid pulses separated by long quiet gaps."""
    check_number("bursts", bursts, ge=0)
    check_number("pulses_per_burst", pulses_per_burst, gt=0)
    check_number("intra_burst_interval", intra_burst_interval, gt=0)
    check_number("inter_burst_gap", inter_burst_gap, gt=0)
    events: List[Tuple[float, str]] = []
    clock = 0.0
    for burst in range(bursts):
        if burst > 0:
            clock += inter_burst_gap
        for _ in range(pulses_per_burst):
            events.append((clock, "down"))
            clock += intra_burst_interval
            events.append((clock, "up"))
            clock += intra_burst_interval
        clock -= intra_burst_interval  # no trailing intra gap
    return PulseSchedule.from_events(events)


def describe_pattern(schedule: PulseSchedule) -> dict:
    """Summary statistics of a schedule (for reports and tests)."""
    if not schedule.events:
        return {
            "pulses": 0,
            "duration": 0.0,
            "min_gap": None,
            "max_gap": None,
            "mean_gap": None,
        }
    offsets = [offset for offset, _ in schedule.events]
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    return {
        "pulses": schedule.pulse_count,
        "duration": schedule.duration,
        "min_gap": min(gaps) if gaps else None,
        "max_gap": max(gaps) if gaps else None,
        "mean_gap": (sum(gaps) / len(gaps)) if gaps else None,
    }


def pattern_by_name(
    name: str,
    pulses: int,
    flap_interval: float,
    rng: Optional[random.Random] = None,
) -> PulseSchedule:
    """Factory used by the CLI and ablation benches.

    When ``rng`` is omitted the pattern draws from a fresh, *named*
    ``RngRegistry`` stream (``workload:pattern`` under master seed 0):
    reproducible per call, but independent of every other
    default-seeded call site (a ``random.Random(0)`` fallback would
    share one stream with every other such site).
    """
    chooser = rng if rng is not None else RngRegistry(0).stream("workload:pattern")
    if name == "regular":
        return PulseSchedule.regular(pulses, flap_interval)
    if name == "poisson":
        return poisson_pattern(
            pulses, mean_down_time=flap_interval, mean_up_time=flap_interval,
            rng=chooser,
        )
    if name == "jittered":
        return jittered_pattern(pulses, flap_interval, 0.25, chooser)
    if name == "burst":
        return burst_pattern(
            max(1, pulses // 3 or 1),
            3,
            intra_burst_interval=flap_interval / 4.0,
            inter_burst_gap=flap_interval * 10.0,
        )
    raise ConfigurationError(
        f"unknown pattern {name!r}; choose regular/poisson/jittered/burst"
    )
