"""Lazy exponential-decay penalty bookkeeping.

RFC 2439 recommends *not* re-computing penalties on a clock tick; instead
the penalty is stored as ``(figure_of_merit, last_stamp)`` and decayed on
demand when it is next read or charged. :class:`PenaltyState` implements
exactly that, plus the ceiling that bounds suppression at the maximum
hold-down time.

One instance exists per (peer, prefix) Adj-RIB-In entry, which on a
10k-node graph means hundreds of thousands of live objects. The class is
therefore slotted and stores its charge history as two parallel
``array('d')`` columns (16 bytes per charge) instead of a list of tuple
objects; :attr:`history` materialises the tuple view on demand for the
figure plots and tests that read it.

This class is deliberately ignorant of suppression decisions — it only
does the arithmetic, and it is the only place the decay + increment +
ceiling recurrence is written: :class:`repro.core.damping.DampingManager`
layers the suppress/reuse state machine on top, and the Section 3 model
(:mod:`repro.core.intended`) charges one too.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from repro.core.params import DampingParams, UpdateKind
from repro.errors import SimulationError


class PenaltyState:
    """Penalty figure-of-merit for one (peer, prefix) Adj-RIB-In entry."""

    __slots__ = ("params", "_value", "_stamp", "_hist_t", "_hist_v")

    def __init__(self, params: DampingParams, value: float = 0.0, stamp: float = 0.0) -> None:
        self.params = params
        self._value = value
        self._stamp = stamp
        self._hist_t: "array[float]" = array("d")
        self._hist_v: "array[float]" = array("d")

    @property
    def history(self) -> List[Tuple[float, float]]:
        """(time, value-after-charge) pairs, recorded at charge instants."""
        return list(zip(self._hist_t, self._hist_v))

    def value_at(self, now: float) -> float:
        """Current decayed penalty at simulated time ``now``."""
        if now < self._stamp:
            raise SimulationError(
                f"penalty queried at {now:.6f} before last stamp {self._stamp:.6f}"
            )
        return self.params.decay(self._value, now - self._stamp)

    def charge(self, now: float, kind: UpdateKind) -> float:
        """Apply one update of ``kind`` at time ``now``.

        Decays the stored value to ``now``, adds the configured increment,
        applies the hold-down ceiling, and returns the new penalty.
        """
        return self.add(now, self.params.penalty_increment(kind))

    def add(self, now: float, increment: float) -> float:
        """Apply a raw penalty increment at time ``now`` (ceiling-capped)."""
        if increment < 0:
            raise SimulationError(f"penalty increment must be >= 0, got {increment}")
        decayed = self.value_at(now)
        new_value = min(decayed + increment, self.params.penalty_ceiling)
        self._value = new_value
        self._stamp = now
        if increment > 0:
            self._hist_t.append(now)
            self._hist_v.append(new_value)
        return new_value

    def touch(self, now: float) -> float:
        """Re-anchor the stored value at ``now`` without charging.

        Useful when the caller wants subsequent reads to be cheap; returns
        the decayed value.
        """
        decayed = self.value_at(now)
        self._value = decayed
        self._stamp = now
        return decayed

    def reset(self, now: float) -> None:
        """Forget all accumulated penalty (e.g. on session reset)."""
        self._value = 0.0
        self._stamp = now

    def reuse_delay(self, now: float) -> float:
        """Seconds from ``now`` until the penalty decays to the reuse
        threshold (0.0 if already below)."""
        return self.params.reuse_delay(self.value_at(now))

    def sample_curve(self, start: float, end: float, step: float) -> List[Tuple[float, float]]:
        """Reconstruct the continuous penalty curve over ``[start, end]``.

        Combines the recorded charge history with analytic decay between
        charges, producing ``(time, value)`` samples every ``step``
        seconds. Used to plot the paper's Figures 3 and 7 without having
        sampled during the run.
        """
        if step <= 0:
            raise SimulationError(f"step must be > 0, got {step}")
        samples: List[Tuple[float, float]] = []
        events = [(t, v) for (t, v) in self.history if t <= end]
        t = start
        while t <= end + 1e-9:
            # Find the last charge at or before t.
            value = 0.0
            for when, after in events:
                if when <= t:
                    value = self.params.decay(after, t - when)
                else:
                    break
            samples.append((t, value))
            t += step
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PenaltyState(value={self._value:.1f}@{self._stamp:.2f})"
