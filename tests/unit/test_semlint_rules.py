"""The retired protocol-semantics (SEM) rules, run against the check that
retired them.

The static SEM rules are gone (docs/STATIC_ANALYSIS.md, "Retired rules").
Their hazards are seeded into a small damped mesh here, and the
converged-state invariant oracle
(:func:`repro.analysis.invariants.check_converged_invariants`) must
find the drained network off its stable state; the same run without the
hazard must pass it.
"""

from __future__ import annotations

import repro.bgp.router
from repro.analysis.invariants import check_converged_invariants
from repro.bgp.decision import select_best
from repro.core.params import CISCO_DEFAULTS
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig


def warmed_mesh() -> Scenario:
    scenario = Scenario(
        ScenarioConfig(topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11)
    )
    scenario.warm_up()
    return scenario


def invariants_broken(scenario: Scenario) -> set:
    return {v.invariant for v in check_converged_invariants(scenario).violations}


# ----------------------------------------------------------------------
# SEM001 — decision-process purity
# ----------------------------------------------------------------------


def run_with_decision(monkeypatch, reads_clock: bool) -> Scenario:
    """One pulse under a decision that breaks equal-preference ties by the
    highest peer name — after the warm-up only if ``reads_clock``."""
    scenario = warmed_mesh()
    engine, warmed_at = scenario.engine, scenario.engine.now

    def decide(candidates, local_pref):
        best = select_best(candidates, local_pref)
        if best is None or (reads_clock and engine.now <= warmed_at):
            return best
        rank = (local_pref(*best), len(best[1].as_path))
        tied = [c for c in candidates if (local_pref(*c), len(c[1].as_path)) == rank]
        return max(tied, key=lambda c: c[0]) if reads_clock else best

    monkeypatch.setattr(repro.bgp.router, "select_best", decide)
    scenario.run(PulseSchedule.regular(1, 60.0))
    return scenario


class TestSEM001:
    def test_fires_on_clock_read_in_decision_module(self, monkeypatch):
        assert invariants_broken(run_with_decision(monkeypatch, reads_clock=True)) == {
            "stable-state"
        }

    def test_quiet_on_pure_decision_code(self, monkeypatch):
        assert not invariants_broken(run_with_decision(monkeypatch, reads_clock=False))


# ----------------------------------------------------------------------
# SEM007 — suppression state owned by the damping manager
# ----------------------------------------------------------------------


def run_with_callback(callback=None) -> Scenario:
    """Three pulses; ``callback(scenario)`` fires once the train is over
    and the damped routes are still suppressed."""
    scenario = warmed_mesh()
    episode = scenario.start_episode(PulseSchedule.regular(3, 60.0))
    if callback is not None:
        scenario.engine.schedule_at(episode.start + 360.0, lambda: callback(scenario))
    scenario.finish_episode(episode)
    return scenario


def damping_managers(scenario: Scenario) -> list:
    return [r.damping for _, r in sorted(scenario.routers.items()) if r.damping is not None]


class TestSEM007:
    def test_fires_on_foreign_suppressed_write(self):
        released = []

        def force_release(scenario):
            for manager in damping_managers(scenario):
                for key, entry in manager._entries.items():
                    if entry.suppressed:
                        entry.suppressed = False
                        released.append(key)

        assert invariants_broken(run_with_callback(force_release)) == {"stable-state"}
        assert released

    def test_quiet_inside_damping_manager(self):
        scenario = run_with_callback()
        reuses = [e for manager in damping_managers(scenario) for e in manager.reuse_events]
        assert reuses  # the manager suppressed routes and released them itself
        assert not invariants_broken(scenario)

    def test_quiet_on_reads(self):
        seen = []

        def count_suppressed(scenario):
            seen.extend(k for m in damping_managers(scenario) for k in m.suppressed_entries())

        untouched = run_with_callback()
        read = run_with_callback(count_suppressed)
        assert seen
        assert not invariants_broken(read)
        assert read.collector.message_count == untouched.collector.message_count
