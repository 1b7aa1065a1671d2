"""Damping parameters (RFC 2439) and the paper's Table 1 vendor presets.

A :class:`DampingParams` instance is an immutable, validated bundle of the
knobs a router operator sets: penalty increments per update kind, cut-off
and reuse thresholds, half-life, and the maximum hold-down time. Derived
quantities that the rest of the code needs constantly — the decay constant
``λ = ln2 / half_life`` and the penalty ceiling that enforces the max
hold-down — are computed once per instance here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from repro.errors import ConfigurationError, check_number


class UpdateKind(enum.Enum):
    """Classification of a received update for penalty purposes.

    The receiving router classifies each update against its current
    Adj-RIB-In entry:

    - ``WITHDRAWAL``: the peer withdrew the route,
    - ``REANNOUNCEMENT``: an announcement arriving while the rib-in entry
      is withdrawn (a route "coming back"),
    - ``ATTRIBUTE_CHANGE``: an announcement whose attributes (AS path)
      differ from the stored route,
    - ``DUPLICATE``: an announcement identical to the stored route —
      ignored entirely (no penalty, no processing).
    """

    WITHDRAWAL = "withdrawal"
    REANNOUNCEMENT = "reannouncement"
    ATTRIBUTE_CHANGE = "attribute_change"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class DampingParams:
    """Validated route-flap-damping configuration (one router's settings).

    Attributes mirror the paper's Table 1:

    ``withdrawal_penalty``
        Penalty added per withdrawal (``P_W``; 1000 for both vendors).
    ``reannouncement_penalty``
        Penalty added per re-announcement (``P_A``; 0 Cisco, 1000 Juniper).
    ``attribute_change_penalty``
        Penalty added per attribute change (500 for both vendors).
    ``cutoff_threshold``
        Suppress the route once the penalty exceeds this (``P_cut``).
    ``reuse_threshold``
        Reuse the route once the penalty decays below this (``P_reuse``).
    ``half_life``
        Exponential-decay half-life in **seconds** (Table 1 lists minutes).
    ``max_hold_down``
        Maximum suppression duration in seconds, enforced by capping the
        penalty at ``reuse_threshold * 2^(max_hold_down / half_life)``.
    """

    withdrawal_penalty: float = 1000.0
    reannouncement_penalty: float = 0.0
    attribute_change_penalty: float = 500.0
    cutoff_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    half_life: float = 15.0 * 60.0
    max_hold_down: float = 60.0 * 60.0

    def __post_init__(self) -> None:
        for name in (
            "withdrawal_penalty",
            "reannouncement_penalty",
            "attribute_change_penalty",
        ):
            check_number(f"DampingParams.{name}", getattr(self, name), ge=0)
        for name in ("reuse_threshold", "half_life", "max_hold_down"):
            check_number(f"DampingParams.{name}", getattr(self, name), gt=0)
        check_number(
            "DampingParams.cutoff_threshold",
            self.cutoff_threshold,
            gt=self.reuse_threshold,
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    # ``cached_property`` writes ``__dict__`` past the frozen __setattr__;
    # equality, hashing and ``replace`` see only the fields.

    @cached_property
    def decay_constant(self) -> float:
        """``λ`` in ``p(t) = p(t0) · exp(-λ (t - t0))``."""
        return math.log(2.0) / self.half_life

    @cached_property
    def penalty_ceiling(self) -> float:
        """Largest penalty value ever stored.

        RFC 2439 enforces the maximum hold-down time by capping the
        penalty so it decays to the reuse threshold within
        ``max_hold_down`` seconds.
        """
        return self.reuse_threshold * math.pow(2.0, self.max_hold_down / self.half_life)

    def penalty_increment(self, kind: UpdateKind) -> float:
        """Penalty added for one update of the given kind.

        Called once per charged update — the branch ladder avoids
        rebuilding a lookup dict on every call.
        """
        if kind is UpdateKind.WITHDRAWAL:
            return self.withdrawal_penalty
        if kind is UpdateKind.REANNOUNCEMENT:
            return self.reannouncement_penalty
        if kind is UpdateKind.ATTRIBUTE_CHANGE:
            return self.attribute_change_penalty
        return 0.0

    def decay(self, penalty: float, elapsed: float) -> float:
        """Value of ``penalty`` after ``elapsed`` seconds of decay."""
        if elapsed < 0:
            raise ConfigurationError(f"elapsed must be >= 0, got {elapsed}")
        if penalty <= 0.0:
            return 0.0
        return penalty * math.exp(-self.decay_constant * elapsed)

    def time_to_reach(self, penalty: float, target: float) -> float:
        """Seconds for ``penalty`` to decay down to ``target``.

        Returns 0.0 when the penalty is already at or below the target.
        This is the paper's ``r = (1/λ) · ln(p / P_reuse)`` with a general
        target.
        """
        if target <= 0:
            raise ConfigurationError(f"target must be > 0, got {target}")
        if penalty <= target:
            return 0.0
        return math.log(penalty / target) / self.decay_constant

    def reuse_delay(self, penalty: float) -> float:
        """Seconds until a suppressed route with this penalty is reused."""
        return self.time_to_reach(penalty, self.reuse_threshold)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, float]:
        """Flat dict of all parameters, for reports (Table 1)."""
        return {
            "withdrawal_penalty": self.withdrawal_penalty,
            "reannouncement_penalty": self.reannouncement_penalty,
            "attribute_change_penalty": self.attribute_change_penalty,
            "cutoff_threshold": self.cutoff_threshold,
            "reuse_threshold": self.reuse_threshold,
            "half_life_minutes": self.half_life / 60.0,
            "max_hold_down_minutes": self.max_hold_down / 60.0,
        }


#: Cisco default parameters (paper Table 1, left column).
CISCO_DEFAULTS = DampingParams(
    withdrawal_penalty=1000.0,
    reannouncement_penalty=0.0,
    attribute_change_penalty=500.0,
    cutoff_threshold=2000.0,
    reuse_threshold=750.0,
    half_life=15.0 * 60.0,
    max_hold_down=60.0 * 60.0,
)

#: Juniper default parameters (paper Table 1, right column).
JUNIPER_DEFAULTS = DampingParams(
    withdrawal_penalty=1000.0,
    reannouncement_penalty=1000.0,
    attribute_change_penalty=500.0,
    cutoff_threshold=3000.0,
    reuse_threshold=750.0,
    half_life=15.0 * 60.0,
    max_hold_down=60.0 * 60.0,
)

#: Vendor presets by name, for CLI and experiment configuration.
VENDOR_PRESETS: Dict[str, DampingParams] = {
    "cisco": CISCO_DEFAULTS,
    "juniper": JUNIPER_DEFAULTS,
}
