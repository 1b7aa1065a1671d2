"""RFC 2439 route flap damping, written from the RFC alone.

The figure of merit decays by powers of two (``2^(-Δt/H)``, never
``exp(-λΔt)``), is capped at ``max_penalty = reuse · 2^(T_hold/H)`` so no
suppression outlasts the maximum hold-down, and drives the suppress /
reuse / recharge state machine of ``docs/ARCHITECTURE.md`` §3. Names
follow the RFC and common router configs (``suppress_threshold``,
``half_life_minutes``, ``max_penalty``); :func:`from_damping_params`
reads a simulator ``DampingParams`` by attribute name only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class DampingConfig:
    withdrawal_penalty: float
    readvertisement_penalty: float
    attribute_change_penalty: float
    suppress_threshold: float
    reuse_threshold: float
    half_life_minutes: float
    max_suppress_minutes: float

    @property
    def max_penalty(self) -> float:
        halvings = self.max_suppress_minutes / self.half_life_minutes
        return self.reuse_threshold * 2.0 ** halvings

    def increment(self, update: str) -> float:
        """Penalty for one ``"withdrawal"``, ``"reannouncement"`` or
        ``"attribute_change"`` (anything else charges nothing)."""
        return {
            "withdrawal": self.withdrawal_penalty,
            "reannouncement": self.readvertisement_penalty,
            "attribute_change": self.attribute_change_penalty,
        }.get(update, 0.0)

    def decayed(self, penalty: float, seconds: float) -> float:
        return penalty * 2.0 ** (-seconds / (60.0 * self.half_life_minutes))

    def seconds_to_reuse(self, penalty: float) -> float:
        if penalty <= self.reuse_threshold:
            return 0.0
        return 60.0 * self.half_life_minutes * math.log2(penalty / self.reuse_threshold)


def from_damping_params(params) -> DampingConfig:
    return DampingConfig(
        withdrawal_penalty=params.withdrawal_penalty,
        readvertisement_penalty=params.reannouncement_penalty,
        attribute_change_penalty=params.attribute_change_penalty,
        suppress_threshold=params.cutoff_threshold,
        reuse_threshold=params.reuse_threshold,
        half_life_minutes=params.half_life / 60.0,
        max_suppress_minutes=params.max_hold_down / 60.0,
    )


@dataclass
class DampedRoute:
    """One route's damping state; times are seconds."""

    config: DampingConfig
    figure_of_merit: float = 0.0
    last_update: float = 0.0
    suppressed: bool = False
    reuse_at: Optional[float] = None
    #: ``(time, penalty after the charge)`` for every positive charge.
    charges: List[Tuple[float, float]] = field(default_factory=list)
    #: ``(start, penalty, reuse time had nothing recharged it)`` per suppression.
    suppressions: List[Tuple[float, float, float]] = field(default_factory=list)
    recharges: List[float] = field(default_factory=list)
    reuses: List[float] = field(default_factory=list)

    def penalty(self, now: float) -> float:
        return self.config.decayed(self.figure_of_merit, now - self.last_update)

    def reuse_timer(self, now: float) -> None:
        """Let the reuse timer fire if it is due by ``now``."""
        if self.suppressed and self.reuse_at <= now:
            self.reuses.append(self.reuse_at)
            self.suppressed, self.reuse_at = False, None

    def update(self, now: float, increment: float) -> float:
        self.reuse_timer(now)
        penalty = min(self.penalty(now) + increment, self.config.max_penalty)
        self.figure_of_merit, self.last_update = penalty, now
        if increment > 0:
            self.charges.append((now, penalty))
        if self.suppressed:
            if increment > 0:
                self.reuse_at = now + self.config.seconds_to_reuse(penalty)
                self.recharges.append(now)
        elif penalty > self.config.suppress_threshold:
            self.suppressed = True
            self.reuse_at = now + self.config.seconds_to_reuse(penalty)
            self.suppressions.append((now, penalty, self.reuse_at))
        return penalty


def section3_prediction(
    config: DampingConfig, pulses: int, interval: float, t_up: float
) -> Tuple[float, Optional[int], float, float]:
    """The paper's Section 3 for ``pulses`` down/up pairs ``interval``
    seconds apart, seen by one damping router: ``(penalty after the final
    announcement, pulse that first suppressed, reuse delay, convergence)``."""
    route = DampedRoute(config)
    suppression_pulse = None
    for event in range(2 * pulses):
        update = "reannouncement" if event % 2 else "withdrawal"
        route.update(event * interval, config.increment(update))
        if suppression_pulse is None and route.suppressions:
            suppression_pulse = event // 2 + 1
    reuse = config.seconds_to_reuse(route.figure_of_merit) if route.suppressed else 0.0
    return route.figure_of_merit, suppression_pulse, reuse, reuse + t_up if pulses else 0.0
