"""The runtime allocation probe prices hot-path allocation hazards.

Each hazard of the retired PERF rule catalogue (keyed by its old rule
id) is *executed* as an engine callback under
:class:`repro.sim.allocprobe.AllocationProbe` (the ``simulate
--audit-alloc`` probe) next to a fixed variant applying the remedy; the
probe must attribute strictly more retained bytes per event to the
hazard. tracemalloc measures live memory, so every pair retains its
per-event artifacts — the hazard's cost is the extra garbage it retains,
the fix's saving is sharing or slotting the same artifact.
"""

from __future__ import annotations

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.sim.allocprobe import AllocationProbe
from repro.sim.engine import Engine
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig

_EVENTS = 300
_TAG = "reuse"  # maps to the penalty_decay sub-phase
_PHASE = "penalty_decay"


def _measure(make_callback) -> int:
    """Net retained bytes after ``_EVENTS`` engine events of ``callback``.

    The callback factory receives the retention sink (a plain list); the
    engine brackets every event with the probe, so whatever the callback
    keeps alive is charged to the ``reuse``-tagged sub-phase.
    """
    engine = Engine()
    sink: list = []
    callback = make_callback(sink)
    for i in range(_EVENTS):
        engine.schedule(float(i + 1), callback, actor="r", tag=_TAG)
    probe = AllocationProbe()
    with probe:
        engine.set_phase_probe(probe)
        engine.run()
        engine.set_phase_probe(None)
        net = probe.net_bytes(_PHASE)
    assert probe.events_sampled == _EVENTS
    assert len(sink) == _EVENTS
    return net


class _Params:
    """Unslotted host for the PERF003 bound-method chain."""

    def __init__(self):
        self.cutoff = 2000.0

    def decay(self):
        return self.cutoff


class _Slotted:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Unslotted:
    def __init__(self, value):
        self.value = value


class _RecordingLogger:
    """Stores messages like the stdlib logger stores LogRecords: the
    message object as passed, lazy args unformatted until emit."""

    def __init__(self, sink):
        self._sink = sink

    def debug(self, message, *args):
        self._sink.append((message, args))


def _shared_key(item):
    return item


_DEFAULTS = {"suppress": 2000.0, "reuse": 750.0, "half_life": 900.0}
_EDGE = (float("inf"), float("-inf"))
_TABLE = {f"10.{i}.0.0/16": i for i in range(64)}


def _make_materialized_membership(sink):
    """PERF008 hazard: materialize the mapping for every membership test;
    retaining the throwaway list makes its per-event cost visible."""

    def callback():
        view = list(_TABLE)
        sink.append(("10.3.0.0/16" in view, view))

    return callback


def _make_eager_logging(sink):
    """PERF009 hazard: the message is formatted before the logger can
    decide; the stored record carries a unique pre-built string."""
    log = _RecordingLogger(sink)
    return lambda: log.debug(f"peer r{len(sink):>128} penalty {2000.0:>64}")


def _make_lazy_logging(sink):
    """PERF009 fix: the shared format literal travels unformatted."""
    log = _RecordingLogger(sink)
    return lambda: log.debug("peer r%s penalty %s", "r1", 2000.0)


#: rule id -> (hazard factory, fixed factory). Each factory takes the
#: retention sink and returns a zero-arg engine callback; the hazard
#: retains its per-event garbage, the fixed variant retains the remedy's
#: shared/slotted artifact.
DYNAMIC_PAIRS = {
    "PERF001": (
        lambda sink: lambda: sink.append(lambda item: item),
        lambda sink: lambda: sink.append(_shared_key),
    ),
    "PERF002": (
        lambda sink: lambda: sink.append(
            {"peer": "r1", "prefix": "10.0.0.0/8", "penalty": 2000.0}
        ),
        lambda sink: lambda: sink.append(("r1", "10.0.0.0/8", 2000.0)),
    ),
    "PERF003": (
        # Re-evaluating `params.decay` binds a fresh method object each
        # time; the fix binds it to a local once.
        lambda sink, params=_Params(): lambda: sink.append(params.decay),
        lambda sink, bound=_Params().decay: lambda: sink.append(bound),
    ),
    "PERF004": (
        # len(sink) varies per event, so every formatted string is unique.
        lambda sink: lambda: sink.append(f"peer r{len(sink):>128} penalty 2000.0"),
        lambda sink: lambda: sink.append("peer r%s penalty 2000.0"),
    ),
    "PERF005": (
        lambda sink: lambda: sink.append(dict(_DEFAULTS)),
        lambda sink: lambda: sink.append(_DEFAULTS),
    ),
    "PERF006": (
        lambda sink: lambda: sink.append(_Unslotted(2000.0)),
        lambda sink: lambda: sink.append(_Slotted(2000.0)),
    ),
    "PERF007": (
        # The throwaway single-item list `+= [item]` allocates, priced by
        # retaining it; append retains only the item slot.
        lambda sink: lambda: sink.append(["10.0.0.0/8"]),
        lambda sink: lambda: sink.append("10.0.0.0/8"),
    ),
    "PERF008": (
        _make_materialized_membership,
        lambda sink: lambda: sink.append("10.3.0.0/16" in _TABLE),
    ),
    "PERF009": (
        _make_eager_logging,
        _make_lazy_logging,
    ),
    "PERF010": (
        lambda sink: lambda: sink.append((float("inf"), float("-inf"))),
        lambda sink: lambda: sink.append(_EDGE),
    ),
}


def test_dynamic_pairs_cover_the_whole_catalogue():
    """One pair per PERF rule docs/STATIC_ANALYSIS.md records, retired or not."""
    from tests.unit.test_source_rules import documented_rules

    assert sorted(DYNAMIC_PAIRS) == sorted(
        rule for rule in documented_rules() if rule.startswith("PERF")
    )


@pytest.mark.parametrize("rule_id", sorted(DYNAMIC_PAIRS))
def test_hazard_retains_more_bytes_than_fix(rule_id):
    hazard_factory, fixed_factory = DYNAMIC_PAIRS[rule_id]
    hazard_bytes = _measure(hazard_factory)
    fixed_bytes = _measure(fixed_factory)
    assert hazard_bytes > fixed_bytes, (
        f"{rule_id}: hazard retained {hazard_bytes}B, "
        f"fix retained {fixed_bytes}B — the probe should price the hazard"
    )
    # The gap is per-event, not a one-off: demand a real margin.
    assert hazard_bytes - fixed_bytes >= _EVENTS * 8


def test_probe_attributes_bytes_to_the_tagged_subphase():
    """Tag -> sub-phase attribution matches the profiler's map: reuse
    events land in penalty_decay, deliver in decision_process, untagged
    in timer_dispatch."""
    engine = Engine()
    sink: list = []
    engine.schedule(1.0, lambda: sink.append(dict(_DEFAULTS)), tag="reuse")
    engine.schedule(2.0, lambda: sink.append(dict(_DEFAULTS)), tag="deliver")
    engine.schedule(3.0, lambda: sink.append(dict(_DEFAULTS)))
    with AllocationProbe() as probe:
        engine.set_phase_probe(probe)
        engine.run()
        rows = probe.report()
    phases = {row["phase"] for row in rows}
    assert phases == {"penalty_decay", "decision_process", "timer_dispatch"}
    for row in rows:
        assert row["events"] == 1
        assert row["net_bytes"] > 0


def test_probe_is_passive_for_simulation_results():
    """The allocation audit never changes what the simulation computes:
    an audited run and a plain run produce identical message counts and
    convergence times."""

    def run_once(audited: bool):
        config = ScenarioConfig(
            topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=11
        )
        scenario = Scenario(config)
        probe = AllocationProbe()
        if audited:
            probe.start()
            scenario.engine.set_phase_probe(probe)
        scenario.warm_up()
        result = scenario.run(PulseSchedule.regular(2, 60.0))
        if audited:
            probe.stop()
            assert probe.events_sampled > 0
        return result.message_count, result.convergence_time

    assert run_once(False) == run_once(True)


def test_scenario_run_samples_protocol_subphases():
    """A damped episode under the probe reports its protocol
    sub-phases."""
    config = ScenarioConfig(
        topology=mesh_topology(3, 3), damping=CISCO_DEFAULTS, seed=7
    )
    scenario = Scenario(config)
    with AllocationProbe() as probe:
        scenario.engine.set_phase_probe(probe)
        scenario.warm_up()
        scenario.run(PulseSchedule.regular(2, 60.0))
    labels = {row["phase"] for row in probe.report()}
    assert "decision_process" in labels
    assert probe.events_sampled > 0
    assert "no events sampled" not in probe.describe()
