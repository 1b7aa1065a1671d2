"""Unit tests for the timerlint pass (TIM001, TIM002, TIM006).

Same shape as ``test_lint_rules.py``: per rule, a fixture that must
fire, the fixture with a ``# lint: disable=...`` comment that must
stay silent, and compliant code that must not be flagged. The abstract
interpreter behind TIM001 and TIM002 gets extra path-sensitivity
coverage, and the hardened rule registry (duplicate and malformed ids)
is tested at the end.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import all_rule_ids, iter_rules, lint_source
from repro.lint.framework import Rule, register


def findings_for(source: str, module: str = "repro.sim.fixture") -> list:
    report = lint_source(textwrap.dedent(source), path="fixture.py", module=module)
    assert not report.parse_errors
    return report.findings


def rule_ids_of(source: str, module: str = "repro.sim.fixture") -> set:
    return {f.rule_id for f in findings_for(source, module=module)}


#: Fixture preamble shared by the lifecycle tests: the Timer import and a
#: named delay.
_PREAMBLE = 'from repro.sim.timers import Timer\n\nDELAY = 5.0\n'


def _with_preamble(source: str) -> str:
    return _PREAMBLE + textwrap.dedent(source)


# ----------------------------------------------------------------------
# TIM001 — leaked armed handle
# ----------------------------------------------------------------------


class TestTIM001:
    def test_fires_on_armed_and_dropped_handle(self):
        ids = rule_ids_of(
            _with_preamble("""
            def leak(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
            """)
        )
        assert ids == {"TIM001"}

    def test_fires_on_early_return_path(self):
        findings = [
            f
            for f in findings_for(
                _with_preamble("""
                def leak(engine, cb, hurry):
                    t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                    t.start(DELAY)
                    if hurry:
                        return None
                    t.cancel()
                """)
            )
            if f.rule_id == "TIM001"
        ]
        assert len(findings) == 1

    def test_respects_disable_comment(self):
        assert not findings_for(
            _with_preamble("""
            def leak(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)  # lint: disable=TIM001
            """)
        )

    def test_quiet_when_stored_returned_or_cancelled(self):
        assert not findings_for(
            _with_preamble("""
            def stored(self, engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                self.timer = t

            def returned(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                return t

            def cancelled(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                t.cancel()
            """)
        )

    def test_quiet_when_cancelled_by_intra_file_helper(self):
        # The call-graph refinement: a helper whose only timer effect is
        # cancelling counts as a disarm, not an escape-and-forget.
        assert not findings_for(
            _with_preamble("""
            def disarm(timer):
                timer.cancel()

            def uses_helper(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                disarm(t)
            """)
        )

    def test_exception_paths_are_excused(self):
        assert not findings_for(
            _with_preamble("""
            def aborts(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                raise RuntimeError("bail")
            """)
        )


# ----------------------------------------------------------------------
# TIM002 — double-arm
# ----------------------------------------------------------------------


class TestTIM002:
    def test_fires_on_start_while_pending(self):
        ids = rule_ids_of(
            _with_preamble("""
            def double(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                t.start(DELAY)
                return t
            """)
        )
        assert "TIM002" in ids

    def test_fires_when_loop_can_rearm(self):
        ids = rule_ids_of(
            _with_preamble("""
            def loops(engine, cb, rounds):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                for _ in rounds:
                    t.start(DELAY)
                return t
            """)
        )
        assert "TIM002" in ids

    def test_respects_disable_comment(self):
        assert "TIM002" not in rule_ids_of(
            _with_preamble("""
            def double(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                t.start(DELAY)  # lint: disable=TIM002
                return t
            """)
        )

    def test_quiet_on_cancel_between_and_on_reschedule(self):
        assert not findings_for(
            _with_preamble("""
            def restart(engine, cb):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                t.start(DELAY)
                t.cancel()
                t.reschedule(DELAY)
                return t

            def rearm_loop(engine, cb, rounds):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                for _ in rounds:
                    t.reschedule(DELAY)
                return t
            """)
        )

    def test_quiet_on_exclusive_branches(self):
        assert not findings_for(
            _with_preamble("""
            def branchy(engine, cb, fast):
                t = Timer(engine, cb, name="x", actor="r", tag="reuse")
                if fast:
                    t.start(DELAY)
                else:
                    t.start(DELAY)
                return t
            """)
        )


# ----------------------------------------------------------------------
# TIM006 — manual call of a timer-expiry internal
# ----------------------------------------------------------------------


class TestTIM006:
    def test_fires_on_each_internal(self):
        source = """
            def flush_now(timer, limiter, manager):
                timer._fire()
                limiter._expired("p1")
                manager._reuse_fired("p1", "10.0.0.0/8")
            """
        findings = [f for f in findings_for(source) if f.rule_id == "TIM006"]
        assert len(findings) == 3

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            def flush_now(timer):
                timer._fire()  # lint: disable=TIM006
            """
        )

    def test_quiet_on_reference_without_call(self):
        # Passing the bound method as a callback is the normal idiom.
        assert not findings_for(
            """
            def arm(engine, timer):
                engine.schedule_at(10.0, timer._fire)
            """
        )


# ----------------------------------------------------------------------
# hardened rule registry
# ----------------------------------------------------------------------


def _registered_class(rule_id: str) -> type:
    return next(type(rule) for rule in iter_rules() if rule.id == rule_id)


class TestRegistryHardening:
    def test_duplicate_rule_id_raises_and_keeps_original(self):
        original = _registered_class("TIM001")

        class Impostor(Rule):
            id = "TIM001"
            title = "duplicate"
            rationale = "duplicate"

        with pytest.raises(ValueError, match="duplicate rule id TIM001"):
            register(Impostor)
        assert _registered_class("TIM001") is original

    def test_missing_id_raises(self):
        class Nameless(Rule):
            title = "no id"
            rationale = "no id"

        with pytest.raises(ValueError, match="has no id"):
            register(Nameless)

    @pytest.mark.parametrize("bad_id", ["tim001", "TIMER1", "TIM01", "TIM0001"])
    def test_malformed_id_raises(self, bad_id):
        class Malformed(Rule):
            id = bad_id
            title = "bad id"
            rationale = "bad id"

        with pytest.raises(ValueError, match="does not match"):
            register(Malformed)
        assert bad_id not in all_rule_ids()
