"""Ablations from the companion technical report (reference [15]) and the
comparisons DESIGN.md calls out.

The sweep-shaped ones (X1–X4, X6, X9, X10) are table entries in
:mod:`repro.experiments.registry`; this module holds the scenario
configurations only they use, and the three that are not sweeps:

- X5 flap patterns — same nominal instability, four temporal shapes,
- X7 parameter sensitivity — the intended model, no simulation,
- X8 distance profile — settling time by hop distance from the ISP.

Each ablation uses a reduced pulse grid to keep the full benchmark suite
fast while preserving the pre/at/post-critical-point structure.
"""

from __future__ import annotations

import dataclasses
import random
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.bgp.mrai import MraiConfig
from repro.core.params import CISCO_DEFAULTS, JUNIPER_DEFAULTS
from repro.experiments.base import (
    DEFAULT_SEED,
    ExperimentResult,
    RunOptions,
    Series,
    internet100_config,
    mesh100_config,
)
from repro.workload.patterns import describe_pattern, pattern_by_name
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig, run_scenario

ABLATION_PULSES = (1, 3, 5, 8)


def wrate_config(apply_to_withdrawals: bool, seed: int = DEFAULT_SEED) -> ScenarioConfig:
    """X6: the standard mesh with MRAI optionally rate-limiting
    withdrawals too (WRATE). Cisco-era BGP sent withdrawals immediately;
    slowing the bad news down changes how much exploration (and hence
    false suppression) a flap causes."""
    return dataclasses.replace(
        mesh100_config(seed=seed),
        mrai=MraiConfig(base=30.0, apply_to_withdrawals=apply_to_withdrawals),
    )


def mixed_vendor_config(rcn: bool = False, seed: int = DEFAULT_SEED) -> ScenarioConfig:
    """X9: Cisco defaults on half the mesh (checkerboard), Juniper on
    the other half. Section 7 of the paper: when a less aggressive
    neighbour reuses its route first, the resulting announcement
    re-charges the aggressive router's timer — secondary charging
    *without* path exploration."""
    config = mesh100_config(rcn=rcn, seed=seed)
    overrides = {
        name: JUNIPER_DEFAULTS
        for index, name in enumerate(config.topology.nodes)
        if index % 2
    }
    return dataclasses.replace(config, damping_overrides=overrides)


def isp_placement_series() -> Tuple[Series, ...]:
    """X10: the origin pinned to the highest- and a lowest-degree node
    of the Internet-derived topology. The paper attaches it to a
    *randomly* selected ISP; on a long-tailed AS graph a hub ISP has many
    peers (wide blast radius), a stub funnels everything through one
    upstream."""
    topology = internet100_config().topology
    series = []
    for label, pick in (("hub", max), ("stub", min)):
        isp = pick(topology.nodes, key=topology.degree)
        degree = topology.degree(isp)
        series.append(
            Series(
                label,
                partial(_pinned_isp_config, isp),
                f"{label} ({isp}, deg {degree})",
                cells=(label, degree),
            )
        )
    return tuple(series)


def _pinned_isp_config(isp: str, seed: int = DEFAULT_SEED) -> ScenarioConfig:
    return dataclasses.replace(internet100_config(seed=seed), isp=isp)


def flap_pattern_experiment(
    options: RunOptions = RunOptions(),
    patterns: Sequence[str] = ("regular", "poisson", "jittered", "burst"),
    pulses: int = 5,
    flap_interval: float = 60.0,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """X5: flap *pattern* sweep — regular vs Poisson vs jittered vs bursty.

    The paper notes "unstable destinations exhibit different flapping
    patterns"; this ablation drives the standard mesh with the same
    nominal instability under four temporal shapes.
    """
    rows: List[List[object]] = []
    data: Dict[str, object] = {}
    for name in patterns:
        schedule = pattern_by_name(
            name, pulses, flap_interval, random.Random(seed)
        )
        _, result = run_scenario(
            mesh100_config(seed=seed),
            schedule,
            check_invariants=options.check_invariants,
        )
        stats = describe_pattern(schedule)
        rows.append(
            [
                name,
                schedule.pulse_count,
                round(stats["mean_gap"] or 0.0, 1),
                round(result.convergence_time, 1),
                result.message_count,
                result.summary.total_suppressions,
                result.summary.secondary_charges,
            ]
        )
        data[name] = {"schedule": schedule, "result": result}
    return ExperimentResult(
        experiment_id="X5",
        title="Ablation: Flap Patterns (regular / poisson / jittered / burst)",
        headers=[
            "pattern",
            "pulses",
            "mean_gap_s",
            "conv_time_s",
            "messages",
            "suppressions",
            "secondary_charges",
        ],
        rows=rows,
        notes=[
            "temporal shape matters: bursty flapping concentrates charges "
            "(fast suppression onset), long Poisson gaps let penalties decay",
        ],
        data=data,
    )


def sensitivity_experiment(
    cutoffs: Sequence[float] = (2000.0, 3000.0, 4000.0, 6000.0),
    half_lives_min: Sequence[float] = (10.0, 15.0, 30.0),
    flap_interval: float = 60.0,
) -> ExperimentResult:
    """X7: the Section 3 tuning trade-off, mapped with the intended model.

    For cut-off and half-life sweeps, report how many flaps the ISP
    tolerates before suppressing and the delay paid once it does.
    """
    from repro.analysis.sensitivity import evaluate_params, sweep_parameter

    rows: List[List[object]] = []
    points = sweep_parameter(
        CISCO_DEFAULTS, "cutoff_threshold", list(cutoffs), flap_interval
    )
    points += sweep_parameter(
        CISCO_DEFAULTS,
        "half_life",
        [m * 60.0 for m in half_lives_min],
        flap_interval,
    )
    points.append(evaluate_params("juniper-defaults", JUNIPER_DEFAULTS, flap_interval))
    for point in points:
        rows.append(
            [
                point.label,
                point.suppression_onset if point.suppression_onset else "never",
                round(point.delay_at_onset, 1),
                round(point.delay_sustained, 1),
            ]
        )
    return ExperimentResult(
        experiment_id="X7",
        title="Ablation: Damping Parameter Sensitivity (intended model)",
        headers=["configuration", "suppression_onset", "delay_at_onset_s", "delay_sustained_s"],
        rows=rows,
        notes=[
            "raising the cut-off tolerates more flaps; the sustained delay "
            "is capped by the max hold-down regardless",
        ],
        data={"points": points},
    )


def distance_profile_experiment(
    options: RunOptions = RunOptions(),
    pulses: int = 1,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """X8: convergence vs hop distance from the ISP (mesh, single pulse).

    Quantifies the paper's framing that routers far from the origin see
    the most false suppression and the longest settling times.
    """
    from repro.analysis.distance import convergence_by_distance

    scenario, result = run_scenario(
        mesh100_config(seed=seed),
        PulseSchedule.regular(pulses, 60.0),
        check_invariants=options.check_invariants,
    )
    buckets = convergence_by_distance(scenario, result)
    rows = [
        [
            bucket.hops,
            bucket.router_count,
            round(bucket.mean_settle, 1),
            round(bucket.max_settle, 1),
            bucket.routers_with_suppression,
        ]
        for bucket in buckets
    ]
    return ExperimentResult(
        experiment_id="X8",
        title=f"Ablation: Convergence vs Distance from ISP ({pulses} pulse)",
        headers=["hops", "routers", "mean_settle_s", "max_settle_s", "with_suppression"],
        rows=rows,
        notes=[
            "settling time of a router = its last Loc-RIB change minus the "
            "origin's final announcement",
        ],
        data={"buckets": buckets, "result": result},
    )
