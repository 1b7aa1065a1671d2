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

from repro.core import CISCO_DEFAULTS, JUNIPER_DEFAULTS, DampingParams, IntendedBehaviorModel
from repro.metrics.digest import run_digest
from repro.topology import internet_topology, mesh_topology
from repro.topology.io import save_topology
from repro.workload import PulseSchedule, Scenario, ScenarioConfig
from repro.workload.patterns import poisson_pattern
from repro.workload.scenarios import run_episode

__version__ = "1.0.0"

# What README.md, docs/TUTORIAL.md and examples/ import from the package
# root; everything else is imported from its subpackage.
__all__ = [
    "CISCO_DEFAULTS",
    "DampingParams",
    "IntendedBehaviorModel",
    "JUNIPER_DEFAULTS",
    "PulseSchedule",
    "Scenario",
    "ScenarioConfig",
    "internet_topology",
    "mesh_topology",
    "poisson_pattern",
    "run_digest",
    "run_episode",
    "save_topology",
]
