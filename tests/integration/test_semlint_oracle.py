"""Seeded-violation cross-check: semlint vs. the runtime oracle.

For every SEM rule, a small fixture seeds exactly the hazard the rule
describes and the static pass must flag it. Where the hazard is
dynamically reachable, the runtime side must trip too: the
converged-state invariant oracle
(:func:`repro.analysis.invariants.check_converged_invariants`) for the
RIB/suppression contracts, and the engine's own scheduling guards for
the timer contracts. Static and dynamic detection bracketing the same
contract is the point — neither alone is airtight.
"""

from __future__ import annotations

import textwrap

import pytest

from dataclasses import replace as dc_replace

from repro.analysis.invariants import check_converged_invariants
from repro.core.params import CISCO_DEFAULTS
from repro.errors import SimulationError
from repro.lint import lint_source
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig

# ----------------------------------------------------------------------
# static side: one seeded violation per SEM rule
# ----------------------------------------------------------------------

SEEDED_VIOLATIONS = {
    "SEM001": (
        """
        def select_best(candidates, engine):
            return max(candidates), engine.now
        """,
        "repro.bgp.decision",
    ),
    "SEM002": (
        """
        import heapq

        def arm_reuse(queue, now, delay, cb):
            heapq.heappush(queue, (now + delay, cb))
        """,
        "repro.core.fixture",
    ),
    "SEM005": (
        """
        class Router:
            def install(self, prefix, route):
                self.loc_rib.set_route(prefix, route)
        """,
        "repro.bgp.fixture",
    ),
    "SEM007": (
        """
        def force_release(entry):
            entry.suppressed = False
        """,
        "repro.bgp.router",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(SEEDED_VIOLATIONS))
def test_seeded_violation_is_flagged_statically(rule_id):
    source, module = SEEDED_VIOLATIONS[rule_id]
    report = lint_source(
        textwrap.dedent(source), path="seeded.py", module=module
    )
    assert not report.parse_errors
    assert rule_id in {f.rule_id for f in report.findings}, (
        f"semlint did not flag the seeded {rule_id} violation"
    )


def test_seeded_fixtures_are_clean_without_the_seeded_rule():
    """Each fixture seeds *its* violation, not an unrelated SEM soup."""
    for rule_id, (source, module) in SEEDED_VIOLATIONS.items():
        report = lint_source(
            textwrap.dedent(source), path="seeded.py", module=module
        )
        other_sem = {
            f.rule_id
            for f in report.findings
            if f.rule_id.startswith("SEM") and f.rule_id != rule_id
        }
        # SEM005 necessarily rides along with SEM001's RIB-mutation seeds.
        other_sem.discard("SEM005")
        assert not other_sem, f"{rule_id} fixture also fires {other_sem}"


# ----------------------------------------------------------------------
# dynamic side: the runtime oracle trips where the hazard is reachable
# ----------------------------------------------------------------------


def drained_scenario() -> Scenario:
    """A small damped mesh, warmed up and run to a fully drained state."""
    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(1, 60.0))
    return scenario


@pytest.fixture(scope="module")
def healthy():
    return drained_scenario()


def test_clean_run_passes_the_oracle(healthy):
    report = check_converged_invariants(healthy)
    assert report.ok
    assert report.routers_checked == 9
    report.raise_on_violation()  # must be a no-op


def test_corrupted_loc_rib_trips_decision_consistency():
    """Dynamic face of SEM001/SEM005: a Loc-RIB that no pure decision
    process would converge to is off the solved stable state."""
    scenario = drained_scenario()
    router = scenario.routers[sorted(scenario.routers)[0]]
    prefix = scenario.config.prefix
    best = router.best_route(prefix)
    assert best is not None
    # A doubled AS path is loopy and not the stable route — exactly what
    # an unobserved foreign mutation produces.
    router.loc_rib.set_route(prefix, dc_replace(best, as_path=best.as_path * 2))
    report = check_converged_invariants(scenario)
    assert {v.invariant for v in report.violations} == {"stable-state"}
    with pytest.raises(SimulationError):
        report.raise_on_violation()


def test_silent_withdrawal_trips_reachability():
    """Dynamic face of SEM005: wiping a Loc-RIB entry without telling
    anyone leaves a silently unreachable router."""
    scenario = drained_scenario()
    router = scenario.routers[sorted(scenario.routers)[-1]]
    router.loc_rib.set_route(scenario.config.prefix, None)
    report = check_converged_invariants(scenario)
    assert {v.invariant for v in report.violations} == {"stable-state"}
    assert report.violations[0].router == router.name


def test_foreign_suppression_write_trips_drain():
    """Dynamic face of SEM007: a .suppressed write outside DampingManager
    leaves a suppressed entry no reuse timer will ever release."""
    scenario = drained_scenario()
    router = next(
        r for _, r in sorted(scenario.routers.items()) if r.damping is not None
    )
    entry = router.damping._entry("rogue-peer", scenario.config.prefix)
    entry.suppressed = True
    assert router.suppressed_entry_count() == 1
    report = check_converged_invariants(scenario)
    assert {v.invariant for v in report.violations} == {"drain"}
    with pytest.raises(SimulationError):
        report.raise_on_violation()


def test_hand_rolled_past_expiry_rejected_by_engine(healthy):
    """Dynamic face of SEM002: expiry arithmetic done by hand (here, an
    already-elapsed absolute instant) is exactly what Engine.schedule_at
    refuses — the API the rule forces everyone through."""
    engine = healthy.engine
    assert engine.now > 0.0
    with pytest.raises(SimulationError):
        engine.schedule_at(engine.now - 10.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_run_point_invariant_toggle(oracle_calls):
    """Satellite wiring: ``check_invariants=True`` makes a point pay for
    an oracle pass (and a clean run passes it); the default does not."""
    from repro.workload.scenarios import run_scenario

    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
    )
    schedule = PulseSchedule.regular(1, 60.0)
    assert run_scenario(config, schedule)[1].message_count > 0
    assert not oracle_calls
    _, checked = run_scenario(config, schedule, check_invariants=True)
    assert checked.message_count > 0
    assert len(oracle_calls) == 1
