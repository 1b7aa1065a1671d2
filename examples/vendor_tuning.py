#!/usr/bin/env python
"""Tuning damping parameters: Cisco vs Juniper vs a custom profile.

Section 3 of the paper points out that the ISP "can largely control the
trade-off by setting appropriate penalty increments, cut-off threshold,
and reuse threshold". This example uses the closed-form intended model
to show the trade-off, then validates one configuration in simulation.

Run:  python examples/vendor_tuning.py
"""

from repro import (
    CISCO_DEFAULTS,
    JUNIPER_DEFAULTS,
    DampingParams,
    IntendedBehaviorModel,
    ScenarioConfig,
    mesh_topology,
    run_episode,
)
from repro.metrics.report import render_table


def main() -> None:
    # A deliberately tolerant profile: more flaps allowed before
    # suppression, shorter maximum hold-down.
    tolerant = DampingParams(
        withdrawal_penalty=1000.0,
        reannouncement_penalty=0.0,
        attribute_change_penalty=250.0,
        cutoff_threshold=4000.0,
        reuse_threshold=1000.0,
        half_life=10 * 60.0,
        max_hold_down=30 * 60.0,
    )
    profiles = [
        ("cisco", CISCO_DEFAULTS),
        ("juniper", JUNIPER_DEFAULTS),
        ("tolerant", tolerant),
    ]

    rows = []
    for name, params in profiles:
        model = IntendedBehaviorModel(params, flap_interval=60.0, tup=30.0)
        onset = model.suppression_onset()
        rows.append(
            [
                name,
                onset if onset is not None else "never",
                round(model.predict(5).convergence_time, 1),
                round(model.predict(10).convergence_time, 1),
                round(params.penalty_ceiling, 0),
            ]
        )
    print(
        render_table(
            [
                "profile",
                "suppression onset (pulses)",
                "intended conv @5 (s)",
                "intended conv @10 (s)",
                "penalty ceiling",
            ],
            rows,
            title="intended-behaviour comparison (closed form)",
        )
    )

    print()
    print("validating the tolerant profile in simulation (5x5 mesh)...")
    config = ScenarioConfig(topology=mesh_topology(5, 5), damping=tolerant, seed=42)
    result = run_episode(config, pulses=5)
    print(
        f"  measured convergence: {result.convergence_time:.1f} s, "
        f"messages: {result.message_count}, "
        f"suppressions: {result.summary.total_suppressions}"
    )


if __name__ == "__main__":
    main()
