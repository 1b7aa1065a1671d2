"""The paper's claims as one table.

Each :class:`Claim` row is one shape claim — a statement of the paper
(or an ablation's design check), the registered experiment whose
:class:`~repro.experiments.base.ExperimentResult` shows it, a measure
over that result and the band the measure must fall in. A qualitative
claim measures a count (e.g. phase checks that failed = 0).

Two consumers check every row, and nothing else states a bound:

- the tier-1 test ``tests/integration/test_paper_claims.py`` runs each
  sweep once on a reduced grid, the union of its rows' ``pulses``;
- the golden-renderings benchmark ``benchmarks/test_experiments.py``
  runs each experiment on its full grid and re-renders
  ``benchmarks/results/<id>.txt``.

A sweep measure over a range of pulse counts reads every point of the
range the run has: the full grid checks the whole range, a reduced run
the row's ``pulses``. EXPERIMENTS.md cites every row by its id.

Nothing on the runtime path (registry, CLI, ``repro.experiments``)
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.states import DampingPhase, phase_durations
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.experiments.fig8_9 import critical_pulse_count, muffled_from
from repro.experiments.parallel import PointOutcome


@dataclass(frozen=True)
class Band:
    """An interval of the real line; ``nan`` is in no band."""

    low: float = -math.inf
    high: float = math.inf
    low_closed: bool = False
    high_closed: bool = False

    def __post_init__(self) -> None:
        # ±inf is a band's open end, so only nan is refused.
        for name in ("low", "high"):
            if math.isnan(getattr(self, name)):
                raise ConfigurationError(f"Band.{name} must not be nan")

    def __contains__(self, value: float) -> bool:
        above = value >= self.low if self.low_closed else value > self.low
        below = value <= self.high if self.high_closed else value < self.high
        return above and below

    def __str__(self) -> str:
        return (
            f"{'[' if self.low_closed else '('}{self.low:g}, "
            f"{self.high:g}{']' if self.high_closed else ')'}"
        )


def above(bound: float) -> Band:
    return Band(low=bound)


def below(bound: float) -> Band:
    return Band(high=bound)


def at_least(bound: float) -> Band:
    return Band(low=bound, low_closed=True)


def at_most(bound: float) -> Band:
    return Band(high=bound, high_closed=True)


def exactly(value: float) -> Band:
    return Band(value, value, True, True)


@dataclass(frozen=True)
class Claim:
    """One row of the claims table."""

    claim_id: str
    #: The paper's statement, with its section or figure.
    statement: str
    #: The registered experiment whose result the measure reads.
    experiment: str
    measure: Callable[[ExperimentResult], float]
    band: Band
    #: Pulse counts a reduced run of a sweep must include for this row;
    #: empty for experiments that are not sweeps.
    pulses: Tuple[int, ...] = ()

    def check(self, result: ExperimentResult) -> str:
        """``""`` when the measure falls in the band, else why not."""
        value = self.measure(result)
        if value in self.band:
            return ""
        return f"{self.claim_id}: {self.statement}: measured {value:g}, band {self.band}"


# ----------------------------------------------------------------------
# reading a result by series key, metric and column header
# ----------------------------------------------------------------------


def _point(result: ExperimentResult, key: str, pulses: int) -> PointOutcome:
    return result.data["sweeps"][key].point(pulses)


def _grid(result: ExperimentResult, low: int = 1, high: int = 10) -> List[int]:
    """The run's pulse counts in ``[low, high]``."""
    counts = [n for n in result.data["pulse_counts"] if low <= n <= high]
    if not counts:
        raise LookupError(f"{result.experiment_id}: no pulse count in [{low}, {high}]")
    return counts


def _series(
    result: ExperimentResult, key: str, metric: str, low: int = 1, high: int = 10
) -> List[float]:
    """``metric`` of series ``key`` at every pulse count in ``[low, high]``."""
    return [getattr(_point(result, key, n), metric) for n in _grid(result, low, high)]


def _every_point(result: ExperimentResult, metric: str) -> List[float]:
    """``metric`` of every series at every pulse count ≥ 1."""
    sweeps = result.data["sweeps"]
    return [
        getattr(point, metric)
        for series in sweeps.values()
        for point in series.points
        if point.pulses >= 1
    ]


def _calc(result: ExperimentResult, pulses: int) -> float:
    return result.data["calculation"][pulses]


def _worst_calc_gap(result: ExperimentResult, key: str, low: int) -> float:
    """Largest relative distance of ``key``'s convergence from the
    calculation over the pulse counts from ``low`` up."""
    return max(
        abs(_point(result, key, n).convergence_time / _calc(result, n) - 1.0)
        for n in _grid(result, low)
    )


def _muffled_delay_spread(result: ExperimentResult, key: str) -> float:
    """Spread of T - ``isp_reuse`` (the propagation) over ``key``'s muffled points."""
    delays = [
        point.convergence_time - point.isp_reuse
        for point in result.data["sweeps"][key].points
        if point.muffled
    ]
    return max(delays) - min(delays) if delays else math.nan


def _rows(result: ExperimentResult) -> List[Dict[str, object]]:
    return [dict(zip(result.headers, row)) for row in result.rows]


def _cell(result: ExperimentResult, column: str, **where: object) -> float:
    """``column`` of the first row whose cells match ``where``."""
    for row in _rows(result):
        if all(row[header] == value for header, value in where.items()):
            return row[column]
    raise LookupError(f"{result.experiment_id}: no row with {where}")


def _column(result: ExperimentResult, column: str) -> List[float]:
    return [row[column] for row in _rows(result)]


# ----------------------------------------------------------------------
# measures that need more than one lookup
# ----------------------------------------------------------------------

#: The paper's Table 1: (Cisco, Juniper) per row label.
_PAPER_TABLE1 = {
    "Withdrawal Penalty (P_W)": (1000.0, 1000.0),
    "Re-announcement Penalty (P_A)": (0.0, 1000.0),
    "Attributes Change Penalty": (500.0, 500.0),
    "Cut-off Threshold (P_cut)": (2000.0, 3000.0),
    "Half Life (minute) (H)": (15.0, 15.0),
    "Reuse Threshold (P_reuse)": (750.0, 750.0),
    "Max Hold-down Time (minute)": (60.0, 60.0),
}


def _table1_mismatches(result: ExperimentResult) -> float:
    rendered = {
        row["Damping Parameters"]: (row["Cisco"], row["Juniper"]) for row in _rows(result)
    }
    return float(sum(rendered.get(label) != values for label, values in _PAPER_TABLE1.items()))


def _penalty_at(result: ExperimentResult, time: float) -> float:
    return dict(result.data["samples"])[time]


def _reuse_after_suppression(result: ExperimentResult) -> float:
    suppressed, reused = result.data["suppressed_at"], result.data["reuse_at"]
    if suppressed is None or reused is None:
        return math.nan
    return reused - suppressed


def _f7_suppression_length(result: ExperimentResult) -> float:
    record = result.data["record"]
    if record.ended is None:
        return math.nan
    return record.ended - record.started


def _n1_phases(result: ExperimentResult) -> list:
    return result.data["n1"]["phases"]


def _phase_order_violations(result: ExperimentResult) -> float:
    """Fig. 10(a): the walk opens charging, suppresses, releases and
    ends converged; one count per check that fails."""
    phases = [interval.phase for interval in _n1_phases(result)]
    checks = (
        phases[:1] == [DampingPhase.CHARGING],
        DampingPhase.SUPPRESSION in phases,
        DampingPhase.RELEASING in phases,
        phases[-1:] == [DampingPhase.CONVERGED],
    )
    return float(checks.count(False))


def _post_charging_over_charging(result: ExperimentResult) -> float:
    durations = phase_durations(_n1_phases(result))
    post_charging = durations[DampingPhase.SUPPRESSION] + durations[DampingPhase.RELEASING]
    return post_charging / durations[DampingPhase.CHARGING]


def _consecutive_non_increases(result: ExperimentResult, key: str) -> float:
    counts = _series(result, key, "message_count")
    return float(sum(later <= earlier for earlier, later in zip(counts, counts[1:])))


def _linear_growth_error(result: ExperimentResult, key: str) -> float:
    """Largest relative distance of m(n) from n × m(1), n ≥ 2."""
    m1 = _point(result, key, 1).message_count
    return max(
        abs(_point(result, key, n).message_count / (n * m1) - 1.0)
        for n in _grid(result, 2)
    )


def _plateau(result: ExperimentResult, key: str) -> float:
    counts = _series(result, key, "message_count", 5)
    return max(counts) / min(counts)


def _ratios(result: ExperimentResult, numerator: str, denominator: str, low: int) -> List[float]:
    """Message count of one series over another's, from ``low`` pulses up."""
    return [
        _point(result, numerator, n).message_count
        / _point(result, denominator, n).message_count
        for n in _grid(result, low)
    ]


def _fewest_more(
    result: ExperimentResult, more: str, fewer: str, metric: str, high: int = 10
) -> float:
    """Smallest margin, over ``[1, high]``, by which ``more`` exceeds ``fewer``."""
    return min(
        getattr(_point(result, more, n), metric) - getattr(_point(result, fewer, n), metric)
        for n in _grid(result, 1, high)
    )


def _onset(result: ExperimentResult, configuration: str) -> float:
    onset = _cell(result, "suppression_onset", configuration=configuration)
    return math.inf if onset == "never" else float(onset)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

_MESH = "full_damping_mesh"
_NO_DAMPING = "no_damping_mesh"
_INTERNET = "full_damping_internet"
_RCN = "damping_rcn"
_HARD = "hard reset"
_GR = "graceful restart"

CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "T1-vendor-defaults",
        "Table 1: the Cisco and Juniper default damping parameters (cells that differ)",
        "T1", _table1_mismatches, exactly(0),
    ),
    Claim(
        "F3-withdrawal-step",
        "Fig. 3: a withdrawal raises the penalty by 1000 (relative error at t = 0)",
        "F3", lambda r: abs(_penalty_at(r, 0.0) / 1000.0 - 1.0), at_most(1e-6),
    ),
    Claim(
        "F3-crosses-cutoff",
        "Fig. 3: the flaps push the penalty over the 2000 cut-off",
        "F3", lambda r: max(penalty for _, penalty in r.data["samples"]), above(2000.0),
    ),
    Claim(
        "F3-decays-below-reuse",
        "Fig. 3: the penalty decays below the 750 reuse threshold by t = 2640 s",
        "F3", lambda r: _penalty_at(r, 2640.0), below(750.0),
    ),
    Claim(
        "F3-reuse-after-suppression",
        "Fig. 3: the route is suppressed, then reused later (reuse - suppression, s)",
        "F3", _reuse_after_suppression, above(0.0),
    ),
    Claim(
        "F7-reuse-postponed",
        "Fig. 7: secondary charging postpones the far router's reuse timer (recharges)",
        "F7", lambda r: len(r.data["recharges"]), at_least(1),
    ),
    Claim(
        "F7-convergence",
        "Fig. 7: after one pulse the network converges only after tens of minutes (s)",
        "F7", lambda r: r.data["convergence_time"], above(1000.0),
    ),
    Claim(
        "F7-suppression-ends",
        "Fig. 7: the traced suppression ends after it starts (s)",
        "F7", _f7_suppression_length, above(0.0),
    ),
    Claim(
        "F8-nodamp-fast",
        "Fig. 8: without damping convergence stays short at every n (s)",
        "F8", lambda r: max(_series(r, _NO_DAMPING, "convergence_time", 0)), below(300.0),
        pulses=(1, 3, 5),
    ),
    Claim(
        "F8-nodamp-no-suppression",
        "Fig. 8: without damping nothing is suppressed",
        "F8", lambda r: sum(_series(r, _NO_DAMPING, "suppressions", 0)), exactly(0),
        pulses=(1, 3, 5),
    ),
    Claim(
        "F8-n1-above-intended",
        "Sec. 5.3 / Fig. 8: one pulse converges far above the calculation (mesh / calc, n = 1)",
        "F8",
        lambda r: _point(r, _MESH, 1).convergence_time / max(_calc(r, 1), 1.0),
        above(5.0),
        pulses=(1,),
    ),
    Claim(
        "F8-n1-internet-above-intended",
        "Fig. 8: the Internet-derived curve shows the same excess (Internet / calc, n = 1)",
        "F8",
        lambda r: _point(r, _INTERNET, 1).convergence_time / max(_calc(r, 1), 1.0),
        above(5.0),
        pulses=(1,),
    ),
    Claim(
        "F8-n1-tens-of-minutes",
        "Fig. 8: one pulse keeps the mesh converging for tens of minutes (s, n = 1)",
        "F8", lambda r: _point(r, _MESH, 1).convergence_time, above(1000.0), pulses=(1,),
    ),
    Claim(
        "F8-warmup-seconds",
        "Fig. 8: the intended n = 1 behaviour is t_up, seconds (mesh warm-up, s)",
        "F8", lambda r: _point(r, _MESH, 1).warmup_convergence, below(300.0), pulses=(1,),
    ),
    Claim(
        "F8-past-nh",
        "Fig. 8: past Nh = 5 the mesh curve meets the calculation (worst relative gap, n >= 5)",
        "F8", lambda r: _worst_calc_gap(r, _MESH, 5), below(0.05), pulses=(5, 8),
    ),
    Claim(
        "F8-nh",
        "Sec. 1 / Fig. 8: from Nh = 5 on, the ISP's is the only noisy reuse (mesh Nh)",
        "F8",
        lambda r: critical_pulse_count(r.data["sweeps"]) or math.nan,
        exactly(5),
        pulses=(3, 5),
    ),
    Claim(
        "F8-muffled-propagation",
        "Sec. 1: past Nh, T = RTh + propagation (mesh spread of T - ISP reuse, s)",
        "F8", lambda r: _muffled_delay_spread(r, _MESH), at_most(0.2), pulses=(5, 8),
    ),
    Claim(
        "F8-internet-nh",
        "Sec. 1 / Fig. 8: the Internet-derived topology is muffled from Nh = 5 on too",
        "F8", lambda r: muffled_from(r.data["sweeps"][_INTERNET]) or math.nan, exactly(5),
        pulses=(3, 5),
    ),
    Claim(
        "F8-internet-muffled-propagation",
        "Sec. 1: past Nh, T = RTh + propagation (Internet spread of T - ISP reuse, s)",
        "F8", lambda r: _muffled_delay_spread(r, _INTERNET), at_most(0.2), pulses=(5, 8),
    ),
    Claim(
        "F9-n1-amplified",
        "Sec. 5.3: a single pulse is amplified to several hundred updates (n = 1)",
        "F9", lambda r: _point(r, _MESH, 1).message_count, above(300.0), pulses=(1,),
    ),
    Claim(
        "F9-nodamp-linear",
        "Fig. 9: without damping the count grows linearly (worst |m(n) / (n m(1)) - 1|, n >= 2)",
        "F9", lambda r: _linear_growth_error(r, _NO_DAMPING), below(0.35), pulses=(1, 3, 5),
    ),
    Claim(
        "F9-nodamp-increasing",
        "Fig. 9: without damping every extra pulse adds messages (non-increasing steps)",
        "F9", lambda r: _consecutive_non_increases(r, _NO_DAMPING), exactly(0),
        pulses=(1, 3, 5),
    ),
    Claim(
        "F9-damped-plateau",
        "Fig. 9: with damping the count flattens once the ISP suppresses (max / min, n >= 5)",
        "F9", lambda r: _plateau(r, _MESH), below(1.15), pulses=(5, 8),
    ),
    Claim(
        "F9-damping-caps",
        "Fig. 9: damping keeps the count well below no damping (worst ratio, n >= 5)",
        "F9", lambda r: max(_ratios(r, _MESH, _NO_DAMPING, 5)),
        below(0.5), pulses=(5,),
    ),
    Claim(
        "F10-n1-false-suppression",
        "Sec. 5.3: one pulse triggers suppression at many links though the ISP never suppresses",
        "F10",
        lambda r: r.data["n1"]["result"].summary.total_suppressions,
        above(50.0),
    ),
    Claim(
        "F10-n1-damped-links",
        "Fig. 10(d): one pulse damps hundreds of links at once (peak, n = 1)",
        "F10", lambda r: _cell(r, "peak_damped", pulses=1), above(50.0),
    ),
    Claim(
        "F10-n1-phase-order",
        "Fig. 10(a): charging, then suppression and releasing, then converged (checks failed)",
        "F10", _phase_order_violations, exactly(0),
    ),
    Claim(
        "F10-n1-releasing-dominates",
        "Sec. 5.3: suppression + releasing dwarf the charging period (ratio, n = 1)",
        "F10", _post_charging_over_charging, above(5.0),
    ),
    Claim(
        "F10-n3-muffling",
        "Fig. 10(b): muffling makes most reuses silent at n = 3 (silent - noisy)",
        "F10",
        lambda r: _cell(r, "silent_reuse", pulses=3) - _cell(r, "noisy_reuse", pulses=3),
        above(0.0),
    ),
    Claim(
        "F10-n5-silent",
        "Sec. 5.3 / Fig. 10(c): at n = 5 remote reuse timers expire silently",
        "F10", lambda r: _cell(r, "silent_reuse", pulses=5), above(100.0),
    ),
    Claim(
        "F10-n5-noisy",
        "Sec. 5.3 / Fig. 10(c): at n = 5 the only noisy expiry is the ISP's own",
        "F10", lambda r: _cell(r, "noisy_reuse", pulses=5), at_most(3.0),
    ),
    Claim(
        "F13-rcn-tracks-calc",
        "Fig. 13: with RCN convergence meets the calculation where suppression is intended "
        "(worst relative gap, n >= 3)",
        "F13", lambda r: _worst_calc_gap(r, _RCN, 3), below(0.10), pulses=(3, 5),
    ),
    Claim(
        "F13-rcn-small-n-fast",
        "Fig. 13: with RCN small n pays no damping delay (s, n = 1, 2)",
        "F13", lambda r: max(_series(r, _RCN, "convergence_time", 1, 2)), below(300.0),
        pulses=(1,),
    ),
    Claim(
        "F13-rcn-small-n-unsuppressed",
        "Fig. 13: with RCN nothing is suppressed below the intended onset (n = 1, 2)",
        "F13", lambda r: sum(_series(r, _RCN, "suppressions", 1, 2)), exactly(0), pulses=(1,),
    ),
    Claim(
        "F13-rcn-beats-plain",
        "Fig. 13: plain damping takes many times RCN's convergence (plain / RCN, n = 1)",
        "F13",
        lambda r: _point(r, _MESH, 1).convergence_time / _point(r, _RCN, 1).convergence_time,
        above(5.0),
        pulses=(1,),
    ),
    Claim(
        "F14-rcn-more-than-plain",
        "Fig. 14: damping with RCN sends slightly more messages than without (worst ratio, n >= 5)",
        "F14", lambda r: min(_ratios(r, _RCN, _MESH, 5)), above(1.0),
        pulses=(5, 8),
    ),
    Claim(
        "F14-rcn-below-nodamp",
        "Fig. 14: RCN still caps the count below no damping (worst ratio, n >= 5)",
        "F14", lambda r: max(_ratios(r, _RCN, _NO_DAMPING, 5)), below(1.0),
        pulses=(8,),
    ),
    Claim(
        "F14-rcn-plateau",
        "Fig. 14: with RCN the count flattens once the ISP suppresses (max / min, n >= 5)",
        "F14", lambda r: _plateau(r, _RCN), below(1.2), pulses=(5, 8),
    ),
    Claim(
        "F15-policy-fewer-suppressions",
        "Fig. 15: no-valley policy reduces false suppression at every n (smallest margin)",
        "F15", lambda r: _fewest_more(r, "no_policy", "with_policy", "suppressions"),
        above(0.0), pulses=(1, 3),
    ),
    Claim(
        "F15-policy-fewer-messages",
        "Fig. 15: policy prunes exploration traffic below the critical point "
        "(smallest margin, n <= 3)",
        "F15", lambda r: _fewest_more(r, "no_policy", "with_policy", "message_count", 3),
        above(0.0), pulses=(1, 3),
    ),
    Claim(
        "F15-policy-closer-to-intended",
        "Fig. 15: policy moves small-n convergence toward the calculation "
        "(no policy - policy, n = 1, s)",
        "F15",
        lambda r: _point(r, "no_policy", 1).convergence_time
        - _point(r, "with_policy", 1).convergence_time,
        above(0.0),
        pulses=(1,),
    ),
    Claim(
        "X1-longer-interval-less-delay",
        "X1: a 240 s flap interval shrinks the intended ISP-side delay at n = 3 vs 60 s (s)",
        "X1",
        lambda r: _cell(r, "intended_s", interval_s=60.0, pulses=3)
        - _cell(r, "intended_s", interval_s=240.0, pulses=3),
        above(0.0),
        pulses=(3,),
    ),
    Claim(
        "X2-partial-fewer-suppressions",
        "X2: damping at 25% of routers suppresses less than at 100% after one pulse",
        "X2",
        lambda r: _cell(r, "suppressions", deployment="100%", pulses=1)
        - _cell(r, "suppressions", deployment="25%", pulses=1),
        above(0.0),
        pulses=(1,),
    ),
    Claim(
        "X3-vendors-differ",
        "X3: Juniper's defaults shift the intended delay at n = 5 relative to Cisco's (|gap|, s)",
        "X3",
        lambda r: abs(
            _cell(r, "intended_s", vendor="juniper", pulses=5)
            - _cell(r, "intended_s", vendor="cisco", pulses=5)
        ),
        above(0.0),
        pulses=(5,),
    ),
    Claim(
        "X3-both-suppress",
        "X3: both vendors have a positive intended delay at n = 8 (smaller of the two, s)",
        "X3",
        lambda r: min(
            _cell(r, "intended_s", vendor=vendor, pulses=8) for vendor in ("cisco", "juniper")
        ),
        above(0.0),
        pulses=(8,),
    ),
    Claim(
        "X4-plain-secondary",
        "Sec. 5.3: without RCN reuse-triggered updates recharge reuse timers (n = 1)",
        "X4", lambda r: _point(r, "plain", 1).secondary_charges, above(0.0), pulses=(1,),
    ),
    Claim(
        "X4-selective-secondary",
        "X4, after the paper: selective damping does not address secondary charging (n = 1)",
        "X4", lambda r: _point(r, "selective", 1).secondary_charges, above(0.0), pulses=(1,),
    ),
    Claim(
        "X4-rcn-no-secondary",
        "X4, after the paper: RCN eliminates secondary charging (n = 1)",
        "X4", lambda r: _point(r, "rcn", 1).secondary_charges, exactly(0), pulses=(1,),
    ),
    Claim(
        "X4-rcn-fastest",
        "X4: RCN converges fastest after a single pulse (faster rival / RCN)",
        "X4",
        lambda r: min(_point(r, key, 1).convergence_time for key in ("plain", "selective"))
        / _point(r, "rcn", 1).convergence_time,
        above(1.0),
        pulses=(1,),
    ),
    Claim(
        "X5-patterns-converge",
        "X5: every flap pattern converges (shortest convergence, s)",
        "X5", lambda r: min(_column(r, "conv_time_s")), above(0.0),
    ),
    Claim(
        "X5-patterns-suppress",
        "X5: every flap pattern triggers damping (fewest suppressions)",
        "X5", lambda r: min(_column(r, "suppressions")), above(0.0),
    ),
    Claim(
        "X5-jitter-keeps-pulses",
        "X5: jitter perturbs the timing, not the pulse count (jittered - regular)",
        "X5",
        lambda r: _cell(r, "pulses", pattern="jittered") - _cell(r, "pulses", pattern="regular"),
        exactly(0),
    ),
    Claim(
        "X6-converges",
        "X6: with and without WRATE every episode converges (shortest convergence, s)",
        "X6", lambda r: min(_every_point(r, "convergence_time")), above(0.0), pulses=(1,),
    ),
    Claim(
        "X6-messages",
        "X6: with and without WRATE every flap is propagated (fewest messages)",
        "X6", lambda r: min(_every_point(r, "message_count")), above(0.0), pulses=(1,),
    ),
    Claim(
        "X7-cisco-onset",
        "Sec. 3: Cisco defaults at a 60 s interval suppress at the third flap",
        "X7", lambda r: _onset(r, "cutoff_threshold=2000"), exactly(3),
    ),
    Claim(
        "X7-higher-cutoff-later",
        "Sec. 3: raising the cut-off tolerates more flaps (onset at 6000 - onset at 3000)",
        "X7",
        lambda r: _onset(r, "cutoff_threshold=6000") - _onset(r, "cutoff_threshold=3000"),
        above(0.0),
    ),
    Claim(
        "X7-juniper-onset",
        "Sec. 3: Juniper (re-announcements charge too) suppresses at the second flap",
        "X7", lambda r: _onset(r, "juniper-defaults"), exactly(2),
    ),
    Claim(
        "X7-hold-down-cap",
        "Sec. 3: the sustained delay is capped by the 60-minute max hold-down (longest, s)",
        "X7", lambda r: max(_column(r, "delay_sustained_s")), at_most(3600.0),
    ),
    Claim(
        "X8-isp-ring",
        "X8: the profile starts at the ISP itself (nearest ring, hops)",
        "X8", lambda r: min(_column(r, "hops")), exactly(0),
    ),
    Claim(
        "X8-hop-range",
        "X8: the torus has rings at least 5 hops from the ISP (farthest ring, hops)",
        "X8", lambda r: max(_column(r, "hops")), at_least(5.0),
    ),
    Claim(
        "X8-far-suppression",
        "Sec. 5.3: false suppression reaches routers 3+ hops from the ISP (such routers)",
        "X8",
        lambda r: sum(row["with_suppression"] for row in _rows(r) if row["hops"] >= 3),
        above(0.0),
    ),
    Claim(
        "X8-long-settle",
        "Sec. 5.3: remote routers settle long after the final announcement (latest, s)",
        "X8", lambda r: max(_column(r, "max_settle_s")), above(1000.0),
    ),
    Claim(
        "X9-mixed-secondary",
        "Sec. 7: parameter diversity alone causes secondary charging (mixed, n = 1)",
        "X9", lambda r: _point(r, "mixed", 1).secondary_charges, above(0.0), pulses=(1,),
    ),
    Claim(
        "X9-rcn-filters",
        "Sec. 7: RCN filters the reuse-triggered charges in a mixed deployment (n = 1)",
        "X9", lambda r: _point(r, "mixed+rcn", 1).secondary_charges, exactly(0), pulses=(1,),
    ),
    Claim(
        "X9-converges",
        "X9: every deployment converges (shortest convergence, s)",
        "X9", lambda r: min(_every_point(r, "convergence_time")), above(0.0), pulses=(1,),
    ),
    Claim(
        "X10-converges",
        "X10: hub and stub attachments both converge (shortest convergence, s)",
        "X10", lambda r: min(_every_point(r, "convergence_time")), above(0.0), pulses=(1,),
    ),
    Claim(
        "X10-messages",
        "X10: hub and stub attachments both propagate every flap (fewest messages)",
        "X10", lambda r: min(_every_point(r, "message_count")), above(0.0), pulses=(1,),
    ),
    Claim(
        "X10-hub-degree",
        "X10: the hub ISP has several times the stub's degree (hub / stub)",
        "X10",
        lambda r: _cell(r, "isp_degree", placement="hub")
        / _cell(r, "isp_degree", placement="stub"),
        at_least(3.0),
        pulses=(1,),
    ),
    Claim(
        "FX1-baseline-uncharged",
        "FX1: without a crash nothing is fault-induced",
        "FX1", lambda r: _cell(r, "fault-induced charges", mode="no crash (baseline)"), exactly(0),
    ),
    Claim(
        "FX1-hard-reset-charged",
        "FX1: a hard reset's withdrawal burst is charged",
        "FX1", lambda r: _cell(r, "fault-induced charges", mode=_HARD), above(0.0),
    ),
    Claim(
        "FX1-gr-uncharged",
        "FX1: graceful restart charges nothing for the crash",
        "FX1", lambda r: _cell(r, "fault-induced charges", mode=_GR), exactly(0),
    ),
    Claim(
        "FX1-gr-less-secondary",
        "FX1: graceful restart also shrinks the secondary-charging echo (hard - GR)",
        "FX1",
        lambda r: _cell(r, "secondary charges", mode=_HARD)
        - _cell(r, "secondary charges", mode=_GR),
        above(0.0),
    ),
    Claim(
        "FX1-gr-faster",
        "FX1: graceful restart converges sooner than a hard reset (hard - GR, s)",
        "FX1",
        lambda r: _cell(r, "convergence (s)", mode=_HARD)
        - _cell(r, "convergence (s)", mode=_GR),
        above(0.0),
    ),
    Claim(
        "FX1-converges",
        "FX1: every mode converges (shortest convergence, s)",
        "FX1", lambda r: min(_column(r, "convergence (s)")), above(0.0),
    ),
)

CLAIMS_BY_ID: Dict[str, Claim] = {claim.claim_id: claim for claim in CLAIMS}


def claims_for(experiment_id: str) -> List[Claim]:
    return [claim for claim in CLAIMS if claim.experiment == experiment_id]
