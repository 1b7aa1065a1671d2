"""The paper's Section 3: damping's *intended* behaviour in closed form.

The intended view treats the network as a single damping router (the
``ispAS``) fed directly by the flapping origin. Given the flap pattern and
the damping parameters, it predicts:

- the penalty at the ISP after each flap event,
  ``p(k) = p(k-1) · e^{-λ w(k)} + f(k)``,
- whether and at which pulse suppression triggers,
- the reuse delay after the final announcement,
  ``r = (1/λ) · ln(p / P_reuse)``,
- the intended convergence time ``t = r + t_up`` (or just ``t_up`` when
  suppression never triggers).

This produces the "Full Damping (calculation)" series of Figures 8, 13,
and 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.params import DampingParams, UpdateKind
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FlapEvent:
    """One event of the origin's flap pattern as seen by the ISP."""

    time: float
    kind: UpdateKind


@dataclass(frozen=True)
class IntendedPrediction:
    """Closed-form prediction for one pulse count."""

    pulses: int
    penalty_at_final: float
    suppressed: bool
    #: 1-based pulse index whose withdrawal first triggered suppression,
    #: or ``None`` when suppression never triggers.
    suppression_pulse: Optional[int]
    #: Seconds from the final announcement until the route is reusable.
    reuse_delay: float
    #: ``reuse_delay + t_up`` (or ``t_up`` when not suppressed).
    convergence_time: float


def pulse_events(pulses: int, flap_interval: float) -> List[FlapEvent]:
    """The event sequence for ``pulses`` withdrawal+announcement pairs.

    A *pulse* is a withdrawal followed ``flap_interval`` seconds later by
    a re-announcement; consecutive events are ``flap_interval`` apart, so
    consecutive withdrawals are ``2 · flap_interval`` apart (the paper's
    "flapping interval 60 seconds" methodology). The final event is always
    an announcement.
    """
    if pulses < 0:
        raise ConfigurationError(f"pulses must be >= 0, got {pulses}")
    if not (math.isfinite(flap_interval) and flap_interval > 0):
        raise ConfigurationError(
            f"flap_interval must be finite and > 0, got {flap_interval}"
        )
    events: List[FlapEvent] = []
    for i in range(pulses):
        start = i * 2.0 * flap_interval
        events.append(FlapEvent(time=start, kind=UpdateKind.WITHDRAWAL))
        events.append(
            FlapEvent(time=start + flap_interval, kind=UpdateKind.REANNOUNCEMENT)
        )
    return events


class IntendedBehaviorModel:
    """Section 3's analytical model of a single damping router.

    Parameters
    ----------
    params:
        The ISP's damping configuration.
    flap_interval:
        Seconds between consecutive flap events (default 60, as in the
        paper's simulations).
    tup:
        The normal (damping-free) BGP convergence time ``t_up`` after a
        previously-unreachable destination is announced. The paper
        observes this is seconds-to-minutes and dominated by ``r``; it is
        a configurable constant here, usually measured from a no-damping
        run of the same topology.
    """

    def __init__(
        self,
        params: DampingParams,
        flap_interval: float = 60.0,
        tup: float = 30.0,
    ) -> None:
        if not (math.isfinite(flap_interval) and flap_interval > 0):
            raise ConfigurationError(
                f"flap_interval must be finite and > 0, got {flap_interval}"
            )
        if not (math.isfinite(tup) and tup >= 0):
            raise ConfigurationError(f"tup must be finite and >= 0, got {tup}")
        self.params = params
        self.flap_interval = flap_interval
        self.tup = tup

    # ------------------------------------------------------------------
    # penalty evolution
    # ------------------------------------------------------------------

    def penalty_trajectory(
        self, events: Iterable[FlapEvent]
    ) -> List[Tuple[float, float, bool]]:
        """Penalty after each event as ``(time, penalty, suppressed)``.

        Implements ``p(k) = p(k-1) e^{-λ w(k)} + f(k)`` with the hold-down
        ceiling, and tracks the ISP's suppression flag: once the penalty
        exceeds the cut-off the entry stays suppressed until the penalty
        decays below the reuse threshold.
        """
        params = self.params
        trajectory: List[Tuple[float, float, bool]] = []
        penalty = 0.0
        stamp = 0.0
        suppressed = False
        for event in events:
            decayed = params.decay(penalty, event.time - stamp)
            if suppressed and decayed < params.reuse_threshold:
                suppressed = False
            penalty = min(
                decayed + params.penalty_increment(event.kind), params.penalty_ceiling
            )
            stamp = event.time
            if not suppressed and penalty > params.cutoff_threshold:
                suppressed = True
            trajectory.append((event.time, penalty, suppressed))
        return trajectory

    def penalty_after_pulses(self, pulses: int) -> float:
        """Penalty at the ISP immediately after the final announcement."""
        events = pulse_events(pulses, self.flap_interval)
        if not events:
            return 0.0
        return self.penalty_trajectory(events)[-1][1]

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------

    def predict(self, pulses: int) -> IntendedPrediction:
        """Intended convergence behaviour for ``pulses`` pulses."""
        events = pulse_events(pulses, self.flap_interval)
        if not events:
            return IntendedPrediction(
                pulses=0,
                penalty_at_final=0.0,
                suppressed=False,
                suppression_pulse=None,
                reuse_delay=0.0,
                convergence_time=0.0,
            )
        trajectory = self.penalty_trajectory(events)
        final_time, final_penalty, suppressed = trajectory[-1]
        suppression_pulse: Optional[int] = None
        for index, (_, _, flag) in enumerate(trajectory):
            if flag:
                suppression_pulse = index // 2 + 1
                break
        reuse_delay = self.params.reuse_delay(final_penalty) if suppressed else 0.0
        convergence = reuse_delay + self.tup if suppressed else self.tup
        del final_time
        return IntendedPrediction(
            pulses=pulses,
            penalty_at_final=final_penalty,
            suppressed=suppressed,
            suppression_pulse=suppression_pulse,
            reuse_delay=reuse_delay,
            convergence_time=convergence,
        )

    def sweep(self, pulse_counts: Iterable[int]) -> List[IntendedPrediction]:
        """Predictions for a series of pulse counts (a figure's x-axis)."""
        return [self.predict(n) for n in pulse_counts]

    def critical_pulse_count(self, max_pulses: int = 64) -> Optional[int]:
        """Smallest pulse count that triggers suppression at the ISP
        (``n = 3`` with Cisco defaults and 60 s intervals)."""
        for n in range(1, max_pulses + 1):
            if self.predict(n).suppressed:
                return n
        return None
