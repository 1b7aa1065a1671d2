"""Pulse schedules.

"We call a pair of a withdrawal and its following announcement a pulse"
(Section 5.1). A schedule of ``n`` pulses with flap interval ``w`` is the
event train ``down@0, up@w, down@2w, up@3w, …`` — consecutive events are
``w`` apart, the final event is always an announcement, and after it the
origin stays stable.

Schedules support irregular spacing too (for the tech-report-style
ablations): build with explicit event times via :meth:`from_events`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.intended import regular_pulse_train
from repro.errors import ConfigurationError, check_number


@dataclass(frozen=True)
class PulseSchedule:
    """A time-stamped train of origin flap events.

    ``events`` holds ``(offset_seconds, status)`` pairs with status
    ``"down"`` or ``"up"``, sorted by offset, relative to the episode
    start.
    """

    events: Tuple[Tuple[float, str], ...]

    def __post_init__(self) -> None:
        previous: Optional[float] = None
        for offset, status in self.events:
            if status not in ("down", "up"):
                raise ConfigurationError(f"bad flap status {status!r}")
            # Offsets start at 0 and strictly increase.
            previous = check_number("PulseSchedule.events offset", offset, ge=0, gt=previous)
        if self.events and self.events[-1][1] != "up":
            raise ConfigurationError(
                "a pulse schedule must end with an announcement ('up') — "
                "the paper's final update from the origin is always an "
                "announcement"
            )

    @classmethod
    def regular(cls, pulses: int, flap_interval: float = 60.0) -> "PulseSchedule":
        """The paper's standard schedule: ``pulses`` down/up pairs with
        ``flap_interval`` seconds between consecutive events (see
        :func:`repro.core.intended.regular_pulse_train`)."""
        return cls(regular_pulse_train(pulses, flap_interval))

    @classmethod
    def from_events(cls, events: Sequence[Tuple[float, str]]) -> "PulseSchedule":
        return cls(tuple(events))

    @property
    def pulse_count(self) -> int:
        return sum(1 for _, status in self.events if status == "down")

    @property
    def duration(self) -> float:
        """Offset of the final event (0.0 for an empty schedule)."""
        return self.events[-1][0] if self.events else 0.0

    @property
    def final_announcement_offset(self) -> float:
        """Offset of the last 'up' event — the convergence clock zero."""
        for offset, status in reversed(self.events):
            if status == "up":
                return offset
        return 0.0

    def __len__(self) -> int:
        return len(self.events)
