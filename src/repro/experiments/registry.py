"""The experiment table: every artefact ``rfd-repro run`` can produce.

Sweep-shaped experiments — a few per-point metrics over a pulse grid for
a handful of configurations — are :class:`~repro.experiments.base.Sweep`
entries, executed by its one generic runner; the rest are functions
registered as :class:`Bespoke` entries. Adding an experiment of the
first kind is adding one entry here (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS
from repro.errors import ExperimentError
from repro.experiments.ablations import (
    ABLATION_PULSES,
    distance_profile_experiment,
    flap_pattern_experiment,
    isp_placement_series,
    mixed_vendor_config,
    sensitivity_experiment,
    wrate_config,
)
from repro.experiments.base import (
    Column,
    ExperimentResult,
    Long,
    RunOptions,
    Series,
    SeriesCache,
    Sweep,
    Wide,
    internet100_config,
    internet208_config,
    mesh100_config,
)
from repro.experiments.fig3 import fig3_experiment
from repro.experiments.fig7 import fig7_experiment
from repro.experiments.fig10 import fig10_experiment
from repro.experiments.gr_faults import gr_faults_experiment
from repro.experiments.table1 import table1_experiment


@dataclass(frozen=True)
class Bespoke:
    """An experiment that is not a pulse-grid sweep: a driver function."""

    experiment_id: str
    #: Called with the :class:`RunOptions` when ``simulated``, else bare.
    driver: Callable[..., ExperimentResult]
    #: False for the analytic artefacts, which run no episode.
    simulated: bool = True

    def run(
        self, options: RunOptions = RunOptions(), cache: Optional[SeriesCache] = None
    ) -> ExperimentResult:
        return self.driver(options) if self.simulated else self.driver()


def _per_series(series: Tuple[Series, ...], metric: str) -> Tuple[Column, ...]:
    return tuple(Column(s.label or s.key, s.key, metric) for s in series)


# Figures 8/9, the paper's headline series. No damping converges fast
# with messages linear in n; full damping sits far above the intended
# curve for small n (path exploration + secondary charging) and snaps
# onto it past the critical point Nh, on mesh and Internet topology alike.
FIG8_SERIES = (
    Series(
        "no_damping_mesh", partial(mesh100_config, damping=None), "No Damping (simulation, mesh)"
    ),
    Series("full_damping_mesh", mesh100_config, "Full Damping (simulation, mesh)"),
    Series("full_damping_internet", internet100_config, "Full Damping (simulation, Internet)"),
)
# Figures 13/14 put RCN in front of the damping algorithm: convergence
# matches the calculation at every n, the message count stays capped.
FIG13_SERIES = FIG8_SERIES + (
    Series("damping_rcn", partial(mesh100_config, rcn=True), "Damping and RCN"),
)
_CALCULATION = Column("Full Damping (calculation)", None)
_X4_KEYS = ("plain", "selective", "rcn")

_TABLE: Tuple[Union[Sweep, Bespoke], ...] = (
    Bespoke("T1", table1_experiment, simulated=False),
    Bespoke("F3", fig3_experiment, simulated=False),
    Bespoke("F7", fig7_experiment),
    Sweep(
        "F8", "Convergence Time vs Number of Pulses", FIG8_SERIES,
        Wide(_per_series(FIG8_SERIES, "convergence_time") + (_CALCULATION,), "no_damping_mesh"),
        notes=("values are seconds from the origin's final announcement to the last update",),
    ),
    Sweep(
        "F9", "Message Count vs Number of Pulses", FIG8_SERIES,
        Wide(_per_series(FIG8_SERIES, "message_count")),
        notes=("values are total updates observed in the network from the first flap",),
    ),
    Bespoke("F10", fig10_experiment),
    Sweep(
        "F13", "Convergence Time with RCN-Enhanced Damping", FIG13_SERIES,
        Wide(_per_series(FIG13_SERIES, "convergence_time") + (_CALCULATION,), "no_damping_mesh"),
        notes=("RCN series should closely match the calculation at every n",),
    ),
    Sweep(
        "F14", "Message Count with RCN-Enhanced Damping", FIG13_SERIES,
        Wide(_per_series(FIG13_SERIES, "message_count")),
        notes=(
            "RCN caps the message count at large n (suppression at the ISP)",
            "RCN produces somewhat more messages than plain damping at large n "
            "because suppression happens exactly at the configured flap count "
            "instead of earlier false suppression",
        ),
    ),
    # Policy prunes alternate paths, so fewer routers turn on false
    # suppression and less secondary charging follows.
    Sweep(
        "F15", "Impact of Policy (208-node Internet-derived topology)",
        (
            Series(
                "with_policy",
                partial(internet208_config, use_no_valley=True),
                "With Policy (no-valley)",
            ),
            Series("no_policy", internet208_config, "No policy (shortest path)"),
        ),
        Wide(
            (
                Column("With Policy", "with_policy"),
                Column("No policy", "no_policy"),
                Column("Intended (calculation)", None),
                Column("supp_policy", "with_policy", "suppressions"),
                Column("supp_nopolicy", "no_policy", "suppressions"),
            ),
            "with_policy",
        ),
        notes=(
            "no-valley policy reduces false suppression and moves convergence "
            "toward (but not onto) the intended behaviour",
        ),
    ),
    Sweep(
        "X1", "Ablation: Flapping Interval",
        tuple(
            Series(
                f"interval_{i:.0f}", mesh100_config, f"interval={i:.0f}s",
                flap_interval=i, cells=(i,),
            )
            for i in (30.0, 60.0, 120.0, 240.0)
        ),
        Long(("interval_s",), intended=True),
        notes=(
            "longer intervals let the penalty decay between flaps, delaying "
            "(or preventing) suppression onset at the ISP",
        ),
        pulse_counts=ABLATION_PULSES,
    ),
    Sweep(
        "X2", "Ablation: Partial Damping Deployment",
        tuple(
            Series(
                f"fraction_{f}", partial(mesh100_config, damping_fraction=f),
                f"deployment={f:.0%}", cells=(f"{f:.0%}",),
            )
            for f in (0.25, 0.5, 0.75, 1.0)
        ),
        Long(("deployment",)),
        notes=(
            "the ISP always damps; fewer damping routers means fewer false "
            "suppressions but less update containment",
        ),
        pulse_counts=ABLATION_PULSES,
    ),
    Sweep(
        "X3", "Ablation: Vendor Damping Parameters",
        (
            Series("cisco", partial(mesh100_config, damping=CISCO_DEFAULTS)),
            Series("juniper", partial(mesh100_config, damping=JUNIPER_DEFAULTS)),
        ),
        Long(("vendor",), intended=True),
        notes=(
            "Juniper penalises re-announcements (P_A=1000) but cuts off at "
            "3000, shifting both the suppression onset and the reuse delay",
        ),
        pulse_counts=ABLATION_PULSES,
    ),
    # Selective damping (Mao et al.) filters path-exploration updates but
    # not reuse-triggered ones, so secondary charging survives.
    Sweep(
        "X4", "Comparator: Selective Damping vs RCN",
        (
            Series("plain", mesh100_config),
            Series("selective", partial(mesh100_config, selective=True)),
            Series("rcn", partial(mesh100_config, rcn=True)),
        ),
        Wide(
            tuple(Column(f"{key}_conv_s", key) for key in _X4_KEYS)
            + tuple(Column(f"{key}_sec_chg", key, "secondary_charges") for key in _X4_KEYS)
        ),
        notes=(
            "selective damping filters some path-exploration penalties but "
            "(as the paper observes) does not address secondary charging; "
            "RCN removes both",
        ),
        pulse_counts=ABLATION_PULSES,
    ),
    Bespoke("X5", flap_pattern_experiment),
    Sweep(
        "X6", "Ablation: MRAI Applied to Withdrawals (WRATE)",
        (
            Series("immediate", partial(wrate_config, False)),
            Series("rate-limited", partial(wrate_config, True)),
        ),
        Long(("withdrawals",)),
        notes=("both variants must converge; dynamics differ in degree",),
        pulse_counts=(1, 3),
    ),
    Bespoke("X7", sensitivity_experiment, simulated=False),
    Bespoke("X8", distance_profile_experiment),
    Sweep(
        "X9", "Ablation: Heterogeneous Damping Parameters (Cisco/Juniper mix)",
        (
            Series("uniform-cisco", mesh100_config),
            Series("mixed", mixed_vendor_config),
            Series("mixed+rcn", partial(mixed_vendor_config, rcn=True)),
        ),
        Long(("deployment",), Long.metrics + ("secondary_charges",)),
        notes=(
            "parameter diversity is an independent source of reuse-timer "
            "interaction; RCN filters the reuse-triggered charges either way",
        ),
        pulse_counts=(1, 3, 5),
    ),
    Sweep(
        "X10", "Ablation: ISP Placement (hub vs stub attachment)",
        isp_placement_series,
        Long(("placement", "isp_degree")),
        notes=(
            "a hub attachment floods updates through many peers at once; "
            "a stub attachment serialises them through one upstream",
        ),
        pulse_counts=(1, 3, 5),
    ),
    Bespoke("FX1", gr_faults_experiment),
)

#: Experiment id → table entry, in listing order.
EXPERIMENTS: Dict[str, Union[Sweep, Bespoke]] = {
    entry.experiment_id: entry for entry in _TABLE
}


def list_experiments() -> List[str]:
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Union[Sweep, Bespoke]:
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(
    experiment_id: str,
    options: RunOptions = RunOptions(),
    cache: Optional[SeriesCache] = None,
) -> ExperimentResult:
    """Run one experiment by id. ``cache`` (a dict the caller owns) lets
    several experiments in one invocation share the series they have in
    common; without it every point is executed."""
    return get_experiment(experiment_id).run(options, cache)


def describe(experiment_id: str) -> str:
    """One-line summary for ``rfd-repro list``."""
    entry = get_experiment(experiment_id)
    if isinstance(entry, Sweep):
        return entry.title
    return (entry.driver.__doc__ or "").strip().splitlines()[0]
