"""The paper's Section 3: damping's *intended* behaviour in closed form.

The intended view treats the network as a single damping router (the
``ispAS``) fed directly by the flapping origin. Given the flap pattern and
the damping parameters, it predicts:

- the penalty at the ISP after each flap event,
  ``p(k) = p(k-1) · e^{-λ w(k)} + f(k)``, charged on a
  :class:`~repro.core.penalty.PenaltyState` (the simulator's one copy of
  the recurrence),
- whether and at which pulse suppression triggers,
- the reuse delay after the final announcement,
  ``r = (1/λ) · ln(p / P_reuse)``,
- the intended convergence time ``t = r + t_up`` (or just ``t_up`` when
  suppression never triggers).

This produces the "Full Damping (calculation)" series of Figures 8, 13,
and 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.params import DampingParams, UpdateKind
from repro.core.penalty import PenaltyState
from repro.errors import check_number

#: How the ISP classifies each event of the origin's flap train.
FLAP_KINDS = {"down": UpdateKind.WITHDRAWAL, "up": UpdateKind.REANNOUNCEMENT}


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


def regular_pulse_train(
    pulses: int, flap_interval: float
) -> Tuple[Tuple[float, str], ...]:
    """The paper's standard flap train as ``(offset, status)`` pairs.

    A *pulse* is a withdrawal (``"down"``) followed ``flap_interval``
    seconds later by a re-announcement (``"up"``); consecutive events are
    ``flap_interval`` apart, so consecutive withdrawals are
    ``2 · flap_interval`` apart (the paper's "flapping interval 60
    seconds" methodology). The final event is always an announcement.
    """
    check_number("pulses", pulses, ge=0)
    check_number("flap_interval", flap_interval, gt=0)
    events: List[Tuple[float, str]] = []
    for i in range(pulses):
        start = i * 2.0 * flap_interval
        events.append((start, "down"))
        events.append((start + flap_interval, "up"))
    return tuple(events)


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
        check_number("IntendedBehaviorModel.flap_interval", flap_interval, gt=0)
        check_number("IntendedBehaviorModel.tup", tup, ge=0)
        self.params = params
        self.flap_interval = flap_interval
        self.tup = tup

    # ------------------------------------------------------------------
    # penalty evolution
    # ------------------------------------------------------------------

    def penalty_trajectory(
        self, events: Iterable[Tuple[float, str]]
    ) -> List[Tuple[float, float, bool]]:
        """Penalty after each ``(time, status)`` event as
        ``(time, penalty, suppressed)``.

        Charges a :class:`PenaltyState` — the simulator's own recurrence
        ``p(k) = p(k-1) e^{-λ w(k)} + f(k)`` with the hold-down ceiling —
        and tracks the ISP's suppression flag: once the penalty exceeds
        the cut-off the entry stays suppressed until the penalty decays
        below the reuse threshold.
        """
        params = self.params
        state = PenaltyState(params)
        trajectory: List[Tuple[float, float, bool]] = []
        suppressed = False
        for time, status in events:
            if suppressed and state.value_at(time) < params.reuse_threshold:
                suppressed = False
            penalty = state.charge(time, FLAP_KINDS[status])
            if not suppressed and penalty > params.cutoff_threshold:
                suppressed = True
            trajectory.append((time, penalty, suppressed))
        return trajectory

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------

    def predict(self, pulses: int) -> IntendedPrediction:
        """Intended convergence behaviour for ``pulses`` pulses."""
        trajectory = self.penalty_trajectory(
            regular_pulse_train(pulses, self.flap_interval)
        )
        if not trajectory:
            return IntendedPrediction(
                pulses=0,
                penalty_at_final=0.0,
                suppressed=False,
                suppression_pulse=None,
                reuse_delay=0.0,
                convergence_time=0.0,
            )
        _, final_penalty, suppressed = trajectory[-1]
        suppression_pulse = next(
            (index // 2 + 1 for index, (_, _, flag) in enumerate(trajectory) if flag),
            None,
        )
        reuse_delay = self.params.reuse_delay(final_penalty) if suppressed else 0.0
        convergence = reuse_delay + self.tup if suppressed else self.tup
        return IntendedPrediction(
            pulses=pulses,
            penalty_at_final=final_penalty,
            suppressed=suppressed,
            suppression_pulse=suppression_pulse,
            reuse_delay=reuse_delay,
            convergence_time=convergence,
        )

    def suppression_onset(self, max_pulses: int = 64) -> Optional[int]:
        """Smallest pulse count that suppresses at the ISP (``n = 3`` with
        Cisco defaults and 60 s intervals); not the measured ``Nh``."""
        for n in range(1, max_pulses + 1):
            if self.predict(n).suppressed:
                return n
        return None
