"""Figure 7 — secondary charging seen in one router's penalty trace.

The paper's Figure 7 plots the simulated route penalty over time at a
router seven hops from the flapping origin, after a *single* route flap:
path exploration charges the penalty over the cut-off within the first
~100 seconds, and then — long after the origin has stabilised — waves of
reuse-triggered updates push the penalty back up over the cut-off several
more times (secondary charging), postponing the route's reuse again and
again.

The driver runs the standard mesh-100 single-pulse episode, picks the
router at the requested hop distance with the most recharged suppression,
and reports its sampled penalty curve plus the recharge instants.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.damping import SuppressionRecord
from repro.experiments.base import (
    DEFAULT_SEED,
    ExperimentResult,
    RunOptions,
    mesh100_config,
)
from repro.metrics.report import render_series
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig, run_scenario

FIG7_HOPS = 7


def _most_recharged(
    scenario: Scenario, hops: int
) -> Tuple[str, str, str, Optional[SuppressionRecord]]:
    """Find, among routers at ``hops`` from the ISP, the (router, peer,
    prefix) suppression episode with the most recharges."""
    topology = scenario.config.topology
    wanted = min(hops, topology.eccentricity(scenario.isp))
    names = topology.nodes_at_distance(scenario.isp, wanted)
    best: Tuple[str, str, str, Optional[SuppressionRecord]] = ("", "", "", None)
    best_count = -1
    for name in names:
        router = scenario.routers[name]
        if router.damping is None:
            continue
        for record in router.damping.suppressions:
            count = len(record.recharges)
            if count > best_count:
                best_count = count
                best = (name, record.peer, record.prefix, record)
    return best


def fig7_experiment(
    options: RunOptions = RunOptions(),
    config: Optional[ScenarioConfig] = None,
    hops: int = FIG7_HOPS,
    sample_step: float = 100.0,
) -> ExperimentResult:
    """Run one pulse through the mesh and trace a far router's penalty."""
    if config is None:
        config = mesh100_config(seed=DEFAULT_SEED)
    scenario, result = run_scenario(
        config,
        PulseSchedule.regular(1, 60.0),
        check_invariants=options.check_invariants,
    )

    router_name, peer, prefix, record = _most_recharged(scenario, hops)
    if record is None:
        raise RuntimeError("no suppression occurred — cannot reproduce Figure 7")
    router = scenario.routers[router_name]
    assert router.damping is not None
    state = router.damping.penalty_state(peer, prefix)
    samples = state.sample_curve(0.0, result.end_time, sample_step)

    params = config.damping
    assert params is not None
    over_cutoff_crossings = _count_upward_crossings(
        state.history, params.cutoff_threshold
    )

    rows: List[List[object]] = [
        ["router", router_name],
        ["hops from origin attachment", scenario.config.topology.hop_distance(scenario.isp, router_name) + 1],
        ["suppression started (s)", round(record.started, 1)],
        ["suppression ended (s)", round(record.ended, 1) if record.ended else "never"],
        ["reuse-timer recharges (secondary charging)", len(record.recharges)],
        ["penalty pushed over cutoff (times)", over_cutoff_crossings],
        ["network convergence time (s)", round(result.convergence_time, 1)],
        ["charging-only reuse estimate (s)", round(_first_reuse_estimate(record, params), 1)],
    ]
    chart = render_series(
        samples,
        title=(
            f"penalty at {router_name} for peer {peer} "
            f"(cutoff={params.cutoff_threshold:.0f}, reuse={params.reuse_threshold:.0f})"
        ),
    )
    secondary_share = 0.0
    first_reuse = _first_reuse_estimate(record, params)
    if record.ended and result.convergence_time > 0:
        extension = record.ended - first_reuse
        secondary_share = max(0.0, extension) / result.convergence_time
    notes = [
        f"without secondary charging this entry would have been reused at "
        f"~{first_reuse:.0f}s; it was actually reused at "
        f"{record.ended:.0f}s" if record.ended else "entry never reused",
        f"secondary charging extended this suppression by "
        f"{100 * secondary_share:.0f}% of total convergence time",
    ]
    return ExperimentResult(
        experiment_id="F7",
        title="Secondary Charging Penalty Trace (1 pulse, mesh-100)",
        headers=["quantity", "value"],
        rows=rows,
        extra_sections=[chart],
        notes=notes,
        data={
            "samples": samples,
            "record": record,
            "router": router_name,
            "peer": peer,
            "convergence_time": result.convergence_time,
            "recharges": list(record.recharges),
        },
    )


def _count_upward_crossings(
    history: List[Tuple[float, float]], threshold: float
) -> int:
    """How many charge events lifted the penalty from below to above
    ``threshold`` (each is one 'pushed over the cutoff again' event)."""
    crossings = 0
    below = True
    for _time, value in history:
        if below and value > threshold:
            crossings += 1
            below = False
        elif value <= threshold:
            below = True
    return crossings


def _first_reuse_estimate(record: SuppressionRecord, params) -> float:  # noqa: ANN001
    """When the route would have been reused had no recharge happened."""
    return record.started + params.reuse_delay(record.penalty_at_start)
