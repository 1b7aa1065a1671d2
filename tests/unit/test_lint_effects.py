"""Unit tests for the intra-file call-graph effect inference
(:mod:`repro.lint.effects`) that powers the semlint pass."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.effects import (
    EMITS_UPDATE,
    MUTATES_RIB,
    READS_CLOCK,
    SCHEDULES_TIMER,
    infer_effects,
)
from repro.lint.framework import enumerate_defs


def analysis_of(source: str):
    return infer_effects(enumerate_defs(ast.parse(textwrap.dedent(source)))[0])


class TestDirectEffects:
    def test_pure_function(self):
        analysis = analysis_of(
            """
            def preference_key(route):
                return (len(route.as_path), route.as_path)
            """
        )
        effects = analysis.function("preference_key")
        assert effects is not None
        assert effects.is_pure
        assert effects.classification == "pure"

    def test_reads_clock(self):
        analysis = analysis_of(
            """
            def stamp(self):
                return self._engine.now
            """
        )
        assert analysis.function("stamp").transitive == {READS_CLOCK}

    def test_schedules_timer_via_engine_and_timer(self):
        analysis = analysis_of(
            """
            def arm(engine, cb):
                engine.schedule_at(10.0, cb)

            def rearm(self, delay):
                self.reuse_timer.reschedule(delay)

            def kick(self, delay):
                self._timer.start(delay)
            """
        )
        for name in ("arm", "rearm", "kick"):
            assert analysis.function(name).transitive == {SCHEDULES_TIMER}, name

    def test_mutates_rib_and_emits_update(self):
        analysis = analysis_of(
            """
            def install(self, route):
                self.loc_rib.set_route("p0", route)

            def announce(self, peer, route):
                self.send(peer, route)
            """
        )
        assert analysis.function("install").transitive == {MUTATES_RIB}
        assert analysis.function("announce").transitive == {EMITS_UPDATE}

    def test_known_api_effect(self):
        # DampingManager.record_update arms reuse timers internally.
        analysis = analysis_of(
            """
            def on_update(self, peer, prefix, kind):
                return self.damping.record_update(peer, prefix, kind)
            """
        )
        assert SCHEDULES_TIMER in analysis.function("on_update").transitive


class TestTransitivePropagation:
    def test_effect_flows_through_module_call(self):
        analysis = analysis_of(
            """
            def leaf(engine, cb):
                engine.schedule(5.0, cb)

            def trunk(engine, cb):
                leaf(engine, cb)

            def root(engine, cb):
                trunk(engine, cb)
            """
        )
        root = analysis.function("root")
        assert root.direct == frozenset()
        assert root.transitive == {SCHEDULES_TIMER}
        assert "trunk" in root.calls

    def test_effect_flows_through_self_call(self):
        analysis = analysis_of(
            """
            class Router:
                def _reselect(self):
                    self.loc_rib.set_route("p0", None)

                def process(self, update):
                    self._reselect()
            """
        )
        process = analysis.function("Router.process")
        assert process.transitive == {MUTATES_RIB}

    def test_recursion_reaches_fixed_point(self):
        analysis = analysis_of(
            """
            def ping(n, engine):
                if n:
                    pong(n - 1, engine)

            def pong(n, engine):
                engine.call_soon(lambda: None)
                ping(n, engine)
            """
        )
        assert analysis.function("ping").transitive == {SCHEDULES_TIMER}
        assert analysis.function("pong").transitive == {SCHEDULES_TIMER}

    def test_self_call_does_not_leak_across_classes(self):
        analysis = analysis_of(
            """
            class Noisy:
                def emit(self):
                    self.send("peer", "route")

            class Quiet:
                def emit(self):
                    return 1

                def caller(self):
                    return self.emit()
            """
        )
        assert analysis.function("Quiet.caller").is_pure
        assert analysis.function("Noisy.emit").transitive == {EMITS_UPDATE}


class TestClosureFolding:
    def test_nested_callback_counts_toward_encloser(self):
        # A closure is created precisely to be scheduled; defining an
        # effectful callback is having the effect.
        analysis = analysis_of(
            """
            def plan(self, route):
                def fire():
                    self.loc_rib.set_route("p0", route)
                return fire
            """
        )
        assert analysis.function("plan").transitive == {MUTATES_RIB}
        assert analysis.function("plan.fire").transitive == {MUTATES_RIB}

    def test_lambda_counts_toward_encloser(self):
        analysis = analysis_of(
            """
            def plan(self, peer, route):
                return lambda: self.send(peer, route)
            """
        )
        assert analysis.function("plan").transitive == {EMITS_UPDATE}


class TestAnalysisContainer:
    def test_iteration_is_sorted_and_len_counts_all(self):
        analysis = analysis_of(
            """
            def b():
                return 1

            def a(engine):
                return engine.now
            """
        )
        names = [f.qualname for f in analysis.iter_functions()]
        assert names == sorted(names)
        assert len(analysis) == 2
        impure = [f.qualname for f in analysis.iter_functions() if not f.is_pure]
        assert impure == ["a"]

    def test_unknown_function_returns_none(self):
        assert analysis_of("x = 1").function("missing") is None
