"""Unit tests for the semlint protocol-semantics rule catalogue.

Every SEM rule gets a firing fixture, a suppression check, and a
compliant fixture that must stay silent. Module scoping (decision /
timer / damping modules) is exercised through the ``module``
argument, exactly as the runner derives it from file paths.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def findings_for(source: str, module: str = "repro.bgp.fixture") -> list:
    report = lint_source(textwrap.dedent(source), path="fixture.py", module=module)
    assert not report.parse_errors
    return report.findings


def sem_findings(source: str, rule_id: str, module: str = "repro.bgp.fixture") -> list:
    return [f for f in findings_for(source, module=module) if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# SEM001 — decision-process purity
# ----------------------------------------------------------------------


class TestSEM001:
    def test_fires_on_clock_read_in_decision_module(self):
        findings = sem_findings(
            """
            def select_best(candidates, engine):
                stamp = engine.now
                return max(candidates), stamp
            """,
            "SEM001",
            module="repro.bgp.decision",
        )
        assert len(findings) == 1
        assert "reads-clock" in findings[0].message
        assert "select_best" in findings[0].message

    def test_fires_on_transitive_effect(self):
        # The effect hides one call away: select_best itself looks clean.
        findings = sem_findings(
            """
            class Decider:
                def _bookkeep(self, route):
                    self.loc_rib.set_route("p0", route)

                def select_best(self, candidates):
                    best = max(candidates)
                    self._bookkeep(best)
                    return best
            """,
            "SEM001",
            module="repro.bgp.decision",
        )
        assert len(findings) == 2  # both the leaf and the caller

    def test_fires_on_effectful_closure(self):
        findings = sem_findings(
            """
            def rank_candidates(candidates, engine):
                def tiebreak():
                    engine.schedule(0.0, lambda: None)
                return sorted(candidates), tiebreak
            """,
            "SEM001",
            module="repro.bgp.decision",
        )
        assert findings

    def test_respects_disable_on_def_line(self):
        assert not sem_findings(
            """
            def select_best(candidates, engine):  # lint: disable=SEM001
                return max(candidates), engine.now
            """,
            "SEM001",
            module="repro.bgp.decision",
        )

    def test_quiet_on_pure_decision_code(self):
        assert not sem_findings(
            """
            def preference_key(route, local_pref):
                return (-local_pref.get(route.peer, 100), len(route.as_path))

            def select_best(candidates, local_pref):
                usable = [c for c in candidates if not c.suppressed]
                if not usable:
                    return None
                return min(usable, key=lambda c: preference_key(c, local_pref))
            """,
            "SEM001",
            module="repro.bgp.decision",
        )

    def test_quiet_outside_decision_modules(self):
        assert not sem_findings(
            """
            def select_best(candidates, engine):
                return max(candidates), engine.now
            """,
            "SEM001",
            module="repro.bgp.router",
        )


# ----------------------------------------------------------------------
# SEM002 — timer scheduling through Engine/Timer APIs
# ----------------------------------------------------------------------


class TestSEM002:
    def test_fires_on_heapq_outside_sim(self):
        findings = sem_findings(
            """
            import heapq

            def arm(queue, when, cb):
                heapq.heappush(queue, (when, cb))
            """,
            "SEM002",
            module="repro.core.fixture",
        )
        assert len(findings) == 1
        assert "heapq.heappush" in findings[0].message

    def test_fires_on_expiry_write_and_scheduled_event(self):
        source = """
            from repro.sim.engine import ScheduledEvent

            def rearm(entry, now, delay):
                entry.expiry = now + delay
                return ScheduledEvent(now + delay, 0, lambda: None)
            """
        assert len(sem_findings(source, "SEM002", module="repro.core.fixture")) == 2

    def test_respects_disable_comment(self):
        assert not sem_findings(
            """
            def rearm(entry, now, delay):
                entry.expiry = now + delay  # lint: disable=SEM002
            """,
            "SEM002",
            module="repro.core.fixture",
        )

    def test_quiet_inside_timer_substrate(self):
        assert not sem_findings(
            """
            import heapq

            def push(queue, event):
                heapq.heappush(queue, event)

            def advance(self, event):
                self._now = event.time
            """,
            "SEM002",
            module="repro.sim.engine",
        )

    def test_quiet_on_engine_api_use(self):
        assert not sem_findings(
            """
            def arm(engine, timer, delay, cb):
                engine.schedule(delay, cb)
                timer.reschedule(delay)
            """,
            "SEM002",
            module="repro.core.fixture",
        )


# ----------------------------------------------------------------------
# SEM005 — Loc-RIB mutations notify metrics
# ----------------------------------------------------------------------


class TestSEM005:
    def test_fires_on_silent_set_route(self):
        findings = sem_findings(
            """
            class Router:
                def install(self, prefix, route):
                    self.loc_rib.set_route(prefix, route)
            """,
            "SEM005",
        )
        assert len(findings) == 1

    def test_respects_disable_comment(self):
        assert not sem_findings(
            """
            class Router:
                def install(self, prefix, route):
                    self.loc_rib.set_route(prefix, route)  # lint: disable=SEM005
            """,
            "SEM005",
        )

    def test_quiet_when_stats_touched(self):
        assert not sem_findings(
            """
            class Router:
                def install(self, prefix, route, now):
                    self.loc_rib.set_route(prefix, route)
                    self.stats.best_path_changes += 1
                    self.last_best_change = now
            """,
            "SEM005",
        )

    def test_quiet_on_other_receivers(self):
        assert not sem_findings(
            """
            class Router:
                def stash(self, prefix, route):
                    self.adj_rib_in.set_route(prefix, route)
            """,
            "SEM005",
        )

    def test_nested_handler_checked_independently(self):
        # The outer function touches stats, but the nested callback that
        # mutates the Loc-RIB does not — the callback must still fire.
        assert sem_findings(
            """
            class Router:
                def plan(self, prefix, route):
                    self.stats.plans += 1
                    def apply_later():
                        self.loc_rib.set_route(prefix, route)
                    return apply_later
            """,
            "SEM005",
        )


# ----------------------------------------------------------------------
# SEM007 — suppression state owned by the damping manager
# ----------------------------------------------------------------------


class TestSEM007:
    def test_fires_on_foreign_suppressed_write(self):
        findings = sem_findings(
            """
            def force_release(entry):
                entry.suppressed = False
            """,
            "SEM007",
            module="repro.bgp.router",
        )
        assert len(findings) == 1

    def test_respects_disable_comment(self):
        assert not sem_findings(
            """
            def force_release(entry):
                entry.suppressed = False  # lint: disable=SEM007
            """,
            "SEM007",
            module="repro.bgp.router",
        )

    def test_quiet_inside_damping_manager(self):
        assert not sem_findings(
            """
            def _reuse_fired(self, entry):
                entry.suppressed = False
            """,
            "SEM007",
            module="repro.core.damping",
        )

    def test_quiet_on_reads(self):
        assert not sem_findings(
            """
            def count_suppressed(entries):
                return sum(1 for e in entries if e.suppressed)
            """,
            "SEM007",
            module="repro.bgp.router",
        )
