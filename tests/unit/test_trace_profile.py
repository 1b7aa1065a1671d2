"""Unit tests for the schema-v2 phase profiler.

Covers the v2 payload shape (labelled sub-phases from the engine probe
alongside explicit ``phase()`` blocks), tag-to-sub-phase attribution
and same-name aggregation.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.trace.profile import (
    HOT_PHASE_LABELS,
    PROFILE_SCHEMA_VERSION,
    TAG_PHASE_MAP,
    EnginePhaseProbe,
    PhaseProfiler,
)


class TestEnginePhaseProbe:
    def test_tags_map_to_subphases(self):
        probe = EnginePhaseProbe()
        for tag in ("deliver", "reuse", "mrai", "flap", None, "mystery"):
            probe.before()
            probe.after(tag)
        rows = {row["phase"]: row for row in probe.snapshot()}
        assert rows["decision_process"]["events"] == 1  # deliver
        assert rows["penalty_decay"]["events"] == 1  # reuse
        assert rows["mrai_flush"]["events"] == 1  # mrai
        assert rows["workload"]["events"] == 1  # flap
        # untagged and unknown tags are engine dispatch work
        assert rows["timer_dispatch"]["events"] == 2

    def test_snapshot_rows_are_labelled_and_sorted(self):
        probe = EnginePhaseProbe()
        probe.before()
        probe.after("reuse")
        probe.before()
        probe.after("deliver")
        rows = probe.snapshot()
        assert [row["phase"] for row in rows] == [
            "decision_process",
            "penalty_decay",
        ]
        for row in rows:
            assert row["source"] == "engine_probe"
            assert row["wall_seconds"] >= 0.0

    def test_reset_forgets_samples(self):
        probe = EnginePhaseProbe()
        probe.before()
        probe.after("reuse")
        probe.reset()
        assert probe.snapshot() == []

    def test_engine_brackets_every_executed_event(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"), tag="reuse")
        engine.schedule(2.0, lambda: fired.append("b"), tag="deliver")
        engine.schedule(3.0, lambda: fired.append("c"))
        probe = EnginePhaseProbe()
        engine.set_phase_probe(probe)
        engine.run()
        assert fired == ["a", "b", "c"]
        rows = {row["phase"]: row["events"] for row in probe.snapshot()}
        assert rows == {
            "penalty_decay": 1,
            "decision_process": 1,
            "timer_dispatch": 1,
        }


class TestPhaseProfilerReport:
    def test_schema_v2_with_probe_subphases(self):
        engine = Engine()
        profiler = PhaseProfiler()
        probe = profiler.attach_probe(engine)
        engine.schedule(1.0, lambda: None, tag="reuse")
        with profiler.phase("episode"):
            engine.run()
        payload = profiler.report()
        assert payload["schema"] == PROFILE_SCHEMA_VERSION == 2
        names = [entry["phase"] for entry in payload["phases"]]
        assert "episode" in names
        assert "penalty_decay" in names
        assert probe.snapshot()  # the probe kept its samples

    def test_same_name_phases_aggregate(self):
        profiler = PhaseProfiler()
        with profiler.phase("warm_up"):
            pass
        with profiler.phase("warm_up"):
            pass
        with profiler.phase("episode"):
            pass
        payload = profiler.report()
        names = [entry["phase"] for entry in payload["phases"]]
        assert names == ["warm_up", "episode"]

    def test_total_wall_sums_aggregated_phases(self):
        profiler = PhaseProfiler()
        with profiler.phase("build"):
            pass
        payload = profiler.report()
        total = sum(
            float(entry["wall_seconds"]) for entry in payload["phases"]
        )
        assert payload["total_wall_seconds"] == pytest.approx(total, abs=1e-6)

    def test_hot_phase_labels_align_with_tag_map(self):
        assert set(TAG_PHASE_MAP.values()) <= set(HOT_PHASE_LABELS) | {
            "workload"
        }
