#!/usr/bin/env python
"""Impact of no-valley routing policy on damping dynamics (Figure 15).

Builds an Internet-derived topology with customer-provider / peer-peer
relationships and compares the no-valley (Gao-Rexford) export policy
against unrestricted shortest-path routing. Policy prunes alternate
paths, which cuts the path exploration that seeds false suppression —
convergence moves toward (but not onto) the intended behaviour.

Run:  python examples/policy_impact.py
"""

from repro import CISCO_DEFAULTS, IntendedBehaviorModel, ScenarioConfig, internet_topology
from repro.metrics.report import render_table
from repro.workload.scenarios import run_episode


def main() -> None:
    topology = internet_topology(120, seed=7, with_relationships=True)
    rows = []
    for pulses in (1, 3, 5):
        with_policy = run_episode(
            ScenarioConfig(
                topology=topology, damping=CISCO_DEFAULTS, use_no_valley=True, seed=42
            ),
            pulses,
        )
        no_policy = run_episode(
            ScenarioConfig(topology=topology, damping=CISCO_DEFAULTS, seed=42),
            pulses,
        )
        model = IntendedBehaviorModel(
            CISCO_DEFAULTS, flap_interval=60.0, tup=with_policy.warmup_convergence
        )
        rows.append(
            [
                pulses,
                round(with_policy.convergence_time, 1),
                round(no_policy.convergence_time, 1),
                round(model.predict(pulses).convergence_time, 1),
                with_policy.summary.total_suppressions,
                no_policy.summary.total_suppressions,
            ]
        )
    print(
        render_table(
            [
                "pulses",
                "no-valley (s)",
                "no policy (s)",
                "intended (s)",
                "suppr. (policy)",
                "suppr. (no policy)",
            ],
            rows,
            title=f"policy impact on {topology.name} "
            f"({topology.relationships.peer_edge_count} peer links, "
            f"{topology.relationships.provider_edge_count} provider links)",
        )
    )
    print()
    print("No-valley export prunes alternate paths: fewer routers turn on")
    print("false suppression, less secondary charging, convergence closer")
    print("to intended — exactly the paper's Section 7 observation.")


if __name__ == "__main__":
    main()
