"""FX1: does graceful restart suppress or amplify secondary charging?

A mid-episode router crash is a burst of withdrawals that damping
charges against every affected (peer, prefix) — on top of whatever the
origin's own flapping already charged. RFC 4724's graceful restart was
designed to avoid exactly this: helpers retain the crashed peer's routes
as *stale* under a restart timer, and if the router comes back and
re-announces the same paths before the timer expires, nothing was ever
withdrawn — and nothing is charged.

This experiment runs the same crash schedule twice on the small mesh —
once with hard session resets, once with graceful restart — with the
causal tracer attached, and compares exact charge attribution
(:mod:`repro.analysis.causality`): ``fault-induced`` charges are the
crash's direct footprint, ``secondary-charging`` the reuse-wave echo.
A third no-fault baseline pins what the origin's flapping alone costs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.analysis.causality import analyze_trace
from repro.bgp.graceful_restart import GracefulRestartConfig
from repro.experiments.base import (
    ExperimentResult,
    RunOptions,
    small_mesh_config,
)
from repro.faults.plan import FaultPlan, RouterCrash
from repro.trace.tracer import Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig, run_scenario

#: The measured episode: a handful of origin pulses plus one crash.
FX1_PULSES = 3
FX1_FLAP_INTERVAL = 60.0
#: Crash lands inside the episode's live-route window.  MRAI (30 s)
#: delays the first re-announcement's second hop until ~t=60, and the
#: reuse wave clears second hops again after ~t=120 — so only in
#: (60, 120) do the victim's neighbours actually hold live routes from
#: it.  Crashing there means a hard reset withdraws something real,
#: and its charges land on top of the flap penalty the episode is
#: already accumulating; outside the window a crash withdraws nothing
#: and the modes are indistinguishable.
FX1_CRASH_AT = 75.0
FX1_DOWN_FOR = 30.0
#: Restart timer comfortably longer than the outage, so GR retention
#: actually covers the crash (the interesting regime).
FX1_RESTART_TIME = 120.0


def _fx1_config(graceful: bool, crash: bool) -> ScenarioConfig:
    """The shared small-mesh setup; the ISP is pinned so the crashed
    router (an ISP neighbour) is deterministic across modes."""
    base = small_mesh_config()
    isp = base.topology.nodes[0]
    plan: Optional[FaultPlan] = None
    if crash:
        victim = base.topology.neighbors(isp)[0]
        plan = FaultPlan(
            name="fx1-crash",
            crashes=(RouterCrash(router=victim, at=FX1_CRASH_AT, down_for=FX1_DOWN_FOR),),
        )
    return replace(
        base,
        isp=isp,
        faults=plan,
        graceful_restart=GracefulRestartConfig(restart_time=FX1_RESTART_TIME)
        if graceful
        else None,
        # The question under test is whether GR avoids *charging*, so
        # session-loss withdrawals must charge in the first place.
        charge_on_session_reset=True,
    )


def _run_mode(config: ScenarioConfig, check_invariants: bool) -> Dict[str, object]:
    tracer = Tracer()
    scenario, result = run_scenario(
        config,
        PulseSchedule.regular(FX1_PULSES, FX1_FLAP_INTERVAL),
        check_invariants=check_invariants,
        tracer=tracer,
    )
    tracer.close()
    causal = analyze_trace(tracer.records)
    stale_flushed = sum(
        router.stats.stale_routes_flushed for router in scenario.routers.values()
    )
    return {
        "causal": causal,
        "charges": dict(causal.charges_by_class),
        "messages": result.message_count,
        "drops": result.collector.drop_count,
        "suppressions": result.summary.total_suppressions,
        "secondary": causal.charges_by_class["secondary-charging"],
        "fault_induced": causal.charges_by_class["fault-induced"],
        "stale_flushed": stale_flushed,
        "convergence": result.convergence_time,
    }


def gr_faults_experiment(options: RunOptions = RunOptions()) -> ExperimentResult:
    """FX1: charge attribution under a router crash, GR on vs off."""
    modes = [
        ("no crash (baseline)", _fx1_config(graceful=False, crash=False)),
        ("hard reset", _fx1_config(graceful=False, crash=True)),
        ("graceful restart", _fx1_config(graceful=True, crash=True)),
    ]
    rows: List[List[object]] = []
    data: Dict[str, object] = {}
    for label, config in modes:
        outcome = _run_mode(config, options.check_invariants)
        data[label] = outcome
        rows.append(
            [
                label,
                outcome["messages"],
                outcome["drops"],
                outcome["suppressions"],
                outcome["fault_induced"],
                outcome["secondary"],
                outcome["stale_flushed"],
                round(float(outcome["convergence"]), 1),  # type: ignore[arg-type]
            ]
        )
    hard = data["hard reset"]
    gr = data["graceful restart"]
    notes = [
        (
            "fault-induced charges: hard reset "
            f"{hard['fault_induced']} vs graceful restart {gr['fault_induced']} "
            "— GR retains the crashed peer's routes as stale, so a clean "
            "return re-announces the same paths as DUPLICATEs and nothing "
            "is charged"
        ),
        (
            "secondary charges: hard reset "
            f"{hard['secondary']} vs graceful restart {gr['secondary']} "
            "— fewer crash-time charges also means fewer reuse waves to echo"
        ),
    ]
    return ExperimentResult(
        experiment_id="FX1",
        title=(
            "router crash mid-episode: graceful restart vs hard reset "
            f"(5x5 mesh, crash at t={FX1_CRASH_AT:.0f}s for {FX1_DOWN_FOR:.0f}s)"
        ),
        headers=[
            "mode",
            "messages",
            "drops",
            "suppressions",
            "fault-induced charges",
            "secondary charges",
            "stale routes flushed",
            "convergence (s)",
        ],
        rows=rows,
        notes=notes,
        data=data,
    )
