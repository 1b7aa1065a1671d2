"""repro — reproduction of "Timer Interaction in Route Flap Damping"
(Zhang, Pei, Massey, Zhang; ICDCS 2005).

An event-driven BGP simulator with RFC 2439 route flap damping, the
paper's analytical "intended behaviour" model, RCN-enhanced damping, and
an experiment harness that regenerates every table and figure in the
paper's evaluation.

Quickstart::

    from repro import (
        CISCO_DEFAULTS, ScenarioConfig, mesh_topology, run_episode,
    )

    config = ScenarioConfig(topology=mesh_topology(5, 5), damping=CISCO_DEFAULTS)
    result = run_episode(config, pulses=1)
    print(result.convergence_time, result.message_count)
"""

from repro.bgp import (
    BgpRouter,
    MraiConfig,
    NoValleyPolicy,
    OriginRouter,
    Route,
    RouterConfig,
    RoutingPolicy,
    ShortestPathPolicy,
    UpdateMessage,
)
from repro.core import (
    CISCO_DEFAULTS,
    JUNIPER_DEFAULTS,
    DampingManager,
    DampingParams,
    DampingPhase,
    IntendedBehaviorModel,
    IntendedPrediction,
    PenaltyState,
    RootCause,
    RootCauseHistory,
    SelectiveDampingFilter,
    UpdateKind,
    classify_phases,
)
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    ReproError,
    SimulationError,
    TimerError,
    TopologyError,
)
from repro.metrics import ConvergenceSummary, MetricsCollector, summarize_convergence
from repro.net import Link, LinkConfig, Message, Network, Node
from repro.sim import Engine, RngRegistry, Timer
from repro.topology import (
    RelationshipMap,
    Topology,
    assign_relationships,
    internet_topology,
    mesh_topology,
)
from repro.analysis import AttributionReport, attribute_recharges
from repro.analysis.attribution import analyze_run
from repro.metrics.digest import run_digest
from repro.topology.io import load_topology, save_topology
from repro.workload import FlapRunResult, PulseSchedule, Scenario, ScenarioConfig
from repro.workload.patterns import (
    burst_pattern,
    jittered_pattern,
    poisson_pattern,
)
from repro.workload.scenarios import run_episode

__version__ = "1.0.0"

__all__ = [
    "AttributionReport",
    "BgpRouter",
    "CISCO_DEFAULTS",
    "ConfigurationError",
    "ConvergenceSummary",
    "DampingManager",
    "DampingParams",
    "DampingPhase",
    "Engine",
    "ExperimentError",
    "FlapRunResult",
    "IntendedBehaviorModel",
    "IntendedPrediction",
    "JUNIPER_DEFAULTS",
    "Link",
    "LinkConfig",
    "Message",
    "MetricsCollector",
    "MraiConfig",
    "Network",
    "Node",
    "NoValleyPolicy",
    "OriginRouter",
    "PenaltyState",
    "ProtocolError",
    "PulseSchedule",
    "RelationshipMap",
    "ReproError",
    "RngRegistry",
    "RootCause",
    "RootCauseHistory",
    "Route",
    "RouterConfig",
    "RoutingPolicy",
    "Scenario",
    "ScenarioConfig",
    "SelectiveDampingFilter",
    "ShortestPathPolicy",
    "SimulationError",
    "Timer",
    "TimerError",
    "Topology",
    "TopologyError",
    "UpdateKind",
    "UpdateMessage",
    "analyze_run",
    "assign_relationships",
    "attribute_recharges",
    "burst_pattern",
    "classify_phases",
    "internet_topology",
    "jittered_pattern",
    "load_topology",
    "mesh_topology",
    "poisson_pattern",
    "run_digest",
    "run_episode",
    "save_topology",
    "summarize_convergence",
]
