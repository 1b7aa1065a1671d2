"""Damping-parameter sensitivity analysis.

Section 3 of the paper: "ispAS can largely control the trade-off by
setting appropriate penalty increments, cut-off threshold, and reuse
threshold. The configuration can be tuned so that a small number of
flaps does not trigger any damping delay, while a large number of flaps
is suppressed." This module maps that trade-off with the closed-form
intended model: for each candidate configuration it reports the
suppression onset (how many flaps are tolerated) and the reuse delay
paid once suppression triggers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.intended import IntendedBehaviorModel
from repro.core.params import DampingParams
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SensitivityPoint:
    """Intended behaviour of one candidate configuration."""

    label: str
    params: DampingParams
    #: Smallest pulse count that triggers suppression (None = never).
    suppression_onset: Optional[int]
    #: Intended reuse delay right at the onset pulse count (0 if never).
    delay_at_onset: float
    #: Intended reuse delay under sustained flapping (many pulses).
    delay_sustained: float


def evaluate_params(
    label: str,
    params: DampingParams,
    flap_interval: float = 60.0,
    sustained_pulses: int = 30,
    max_onset_search: int = 64,
) -> SensitivityPoint:
    """Evaluate one configuration with the intended model."""
    model = IntendedBehaviorModel(params, flap_interval=flap_interval, tup=0.0)
    onset = model.suppression_onset(max_pulses=max_onset_search)
    delay_at_onset = model.predict(onset).reuse_delay if onset is not None else 0.0
    delay_sustained = model.predict(sustained_pulses).reuse_delay
    return SensitivityPoint(
        label=label,
        params=params,
        suppression_onset=onset,
        delay_at_onset=delay_at_onset,
        delay_sustained=delay_sustained,
    )


def sweep_parameter(
    base: DampingParams,
    parameter: str,
    values: Sequence[float],
    flap_interval: float = 60.0,
) -> List[SensitivityPoint]:
    """Vary one ``DampingParams`` field across ``values``.

    ``parameter`` must name a field of :class:`DampingParams`; each value
    produces a re-validated configuration (invalid combinations raise
    :class:`~repro.errors.ConfigurationError` from the params layer).
    """
    if not values:
        raise ConfigurationError("values must be non-empty")
    if parameter not in DampingParams.__dataclass_fields__:
        raise ConfigurationError(f"unknown damping parameter {parameter!r}")
    points = []
    for value in values:
        params = replace(base, **{parameter: value})
        points.append(
            evaluate_params(f"{parameter}={value:g}", params, flap_interval)
        )
    return points


def tolerance_frontier(
    base: DampingParams,
    target_onset: int,
    flap_interval: float = 60.0,
    low: float = 1000.0,
    high: float = 64_000.0,
    tolerance: float = 1.0,
) -> float:
    """Smallest cut-off threshold that tolerates ``target_onset - 1``
    pulses without suppression (binary search on the intended model).

    This answers the operator's question directly: "I want to allow k
    flaps before damping kicks in — where must my cut-off be?"
    """
    if target_onset < 1:
        raise ConfigurationError(f"target_onset must be >= 1, got {target_onset}")

    def onset_for(cutoff: float) -> Optional[int]:
        params = replace(base, cutoff_threshold=cutoff)
        model = IntendedBehaviorModel(params, flap_interval=flap_interval, tup=0.0)
        return model.suppression_onset(max_pulses=max(64, target_onset * 2))

    if onset_for(high) is not None and onset_for(high) < target_onset:
        raise ConfigurationError(
            f"even cutoff {high} suppresses before pulse {target_onset}"
        )
    lo, hi = low, high
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        onset = onset_for(mid)
        if onset is not None and onset < target_onset:
            lo = mid
        else:
            hi = mid
    return hi
