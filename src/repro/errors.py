"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause while still distinguishing configuration mistakes from
runtime protocol violations. :func:`check_number` is the one check
that a config number is finite and within its bounds.
"""

from __future__ import annotations

import math
from typing import NoReturn, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class TimerError(SimulationError):
    """A timer was started, cancelled, or fired in an invalid state."""


class SimulationStalled(SimulationError):
    """The engine detected no-progress: the event queue keeps producing
    work without advancing virtual time (or past the event budget).

    ``diagnostics`` carries a structured
    :class:`repro.sim.watchdog.StallDiagnostics` snapshot — the clock,
    event counts, a sample of the next pending events, and the
    pending-timer inventory from the :class:`repro.sim.timers.TimerAudit`
    when one is attached — so a wedged simulation fails with an
    actionable inventory instead of hanging.
    """

    def __init__(self, message: str, diagnostics: object = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class TopologyError(ReproError):
    """A topology could not be constructed or violates an invariant."""


class ProtocolError(ReproError):
    """A BGP message or RIB operation violated protocol invariants."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured or produced no result."""


def check_number(
    what: str,
    value: object,
    *,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
    lt: Optional[float] = None,
    le: Optional[float] = None,
) -> float:
    """``value`` when it is a finite real number inside the given bounds;
    otherwise one :class:`ConfigurationError` naming ``what`` (by
    convention ``Class.field``).

    This is the one construction-time check of a config number. A bool or
    a non-number fails, and so do ``nan`` and ``±inf``: every comparison
    with ``nan`` is false, so a bare ``x <= 0`` guard lets it through.
    Nothing calls it per event, message or charge.
    """
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return value
    bounds = " and ".join(
        f"{op} {bound}"
        for op, bound in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
        if bound is not None
    )
    raise ConfigurationError(
        f"{what} must be a finite number{' ' + bounds if bounds else ''}, got {value!r}"
    )


def reject_non_finite_token(token: str) -> NoReturn:
    """``json.loads(parse_constant=...)`` hook: a ``NaN``, ``Infinity`` or
    ``-Infinity`` token in an input document is a ``ValueError`` at load."""
    raise ValueError(f"{token} is not a finite number")
