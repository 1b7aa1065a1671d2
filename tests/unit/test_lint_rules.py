"""The determinism (DET) rules, and the catalogue of all twenty rules.

The static analyser that ran these rules is gone (docs/STATIC_ANALYSIS.md).
Each surviving rule is now a check in ``tests/unit/test_source_rules.py``
and is held here to the fixtures the analyser's rule was: one that must
be flagged, and compliant code that must not be. A retired rule's
fixtures are *run* instead, and the run-time check that retired it must
trip on the hazard and stay quiet on the compliant shape.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from tests.unit.test_source_rules import (
    documented_rules,
    global_stream_calls,
    process_spawns,
)


def det002(source: str) -> list:
    return global_stream_calls("repro.sim.fixture", ast.parse(textwrap.dedent(source)))


def det010(source: str, module: str = "repro.experiments.fixture") -> list:
    return process_spawns(module, ast.parse(textwrap.dedent(source)))


# ----------------------------------------------------------------------
# DET002 — global random state (source check)
# ----------------------------------------------------------------------


class TestDET002:
    def test_fires_on_module_level_random(self):
        assert det002(
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """
        ) == ["repro.sim.fixture:5: random.uniform()"]

    def test_fires_on_literal_seeded_random(self):
        assert det002(
            """
            from random import Random

            def chooser():
                return Random(0)
            """
        ) == ["repro.sim.fixture:5: random.Random()"]

    def test_fires_on_unseeded_random_constructor(self):
        assert det002(
            """
            import random as rnd

            def chooser():
                return rnd.Random()
            """
        ) == ["repro.sim.fixture:5: random.Random()"]

    def test_quiet_on_injected_generator_and_derived_seed(self):
        assert not det002(
            """
            import random

            def jitter(rng):
                return rng.uniform(0.0, 1.0)

            def derived(seed):
                return random.Random(seed + 1)
            """
        )


# ----------------------------------------------------------------------
# DET006 — re-entrant engine runs (retired: the engine refuses them)
# ----------------------------------------------------------------------


class TestDET006:
    def test_fires_on_closure_calling_run(self):
        engine = Engine()

        def schedule_probe(engine):
            def probe():
                engine.run(until=engine.now + 1.0)

            engine.schedule(0.0, probe)

        schedule_probe(engine)
        with pytest.raises(SimulationError, match="not reentrant"):
            engine.run()

    def test_fires_on_lambda_and_self_engine(self):
        class Driver:
            def __init__(self):
                self._engine = Engine()

            def arm(self):
                self._engine.schedule(0.0, lambda: self._engine.step())

        driver = Driver()
        driver.arm()
        with pytest.raises(SimulationError, match="not reentrant"):
            driver._engine.run()

    def test_quiet_on_top_level_run_and_other_receivers(self):
        class Scenario:
            def __init__(self):
                self.engine = Engine()
                self.fired = []

            def run(self, schedule):
                self.engine.run_until_idle(max_time=10.0)

        scenario = Scenario()
        engine = scenario.engine
        # A callback may call ``run`` on anything but the engine firing it.
        engine.schedule(1.0, lambda: scenario.fired.append(engine.now))
        engine.schedule(2.0, lambda: Engine().run())
        engine.run_until_idle(max_time=100.0)
        scenario.run(None)
        assert scenario.fired == [1.0]
        assert engine.now == 2.0


# ----------------------------------------------------------------------
# DET010 — process fan-out outside the sweep executor (source check)
# ----------------------------------------------------------------------


class TestDET010:
    def test_fires_on_multiprocessing_import(self):
        assert det010(
            """
            import multiprocessing

            def fan_out(items):
                with multiprocessing.Pool() as pool:
                    return pool.map(str, items)
            """
        ) == ["repro.experiments.fixture:2: multiprocessing"]

    def test_fires_on_concurrent_futures_from_import(self):
        assert det010(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(str, items))
            """
        ) == ["repro.experiments.fixture:2: concurrent.futures.ProcessPoolExecutor"]

    def test_fires_on_os_fork(self):
        assert det010(
            """
            import os

            def split():
                return os.fork()
            """
        ) == ["repro.experiments.fixture:5: os.fork"]

    def test_silent_in_executor_module(self):
        source = """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """
        assert det010(source)
        assert not det010(source, module="repro.experiments.parallel")

    def test_silent_on_unrelated_imports_and_os_use(self):
        assert not det010(
            """
            import os
            from concurrentutils import helpers

            def cpu_count():
                return os.cpu_count()
            """
        )


# ----------------------------------------------------------------------
# the catalogue: every rule has one row in docs/STATIC_ANALYSIS.md
# ----------------------------------------------------------------------


class TestFramework:
    def test_catalogue_is_complete(self):
        expected = (
            {"DET002", "DET006", "DET010"}
            | {"SEM001", "SEM002", "SEM005", "SEM007"}
            | {"TIM001", "TIM002", "TIM006"}
            | {f"PERF{n:03d}" for n in range(1, 11)}
        )
        rules = documented_rules()
        assert set(rules) == expected
        survivors = {rule for rule, (section, _) in rules.items() if section == "The source rules"}
        assert survivors == {"DET002", "DET010", "PERF006"}

    def test_every_rule_has_title_and_rationale(self):
        for rule_id, (section, cells) in documented_rules().items():
            width = 3 if section == "The source rules" else 2
            assert len(cells) == width and all(cells), (rule_id, section, cells)
