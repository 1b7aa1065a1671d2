"""An episode makes no cyclic garbage; a finished scenario is one big cycle.

``Engine._drain`` runs with Python's automatic cyclic collector paused,
and ``experiments.parallel._run_point`` collects each point's scenario
before the next point is built. Both rest on the properties pinned here.
Every count is taken with automatic collection off, so nothing is
collected behind the test's back: one ``gc.collect()`` returns exactly
the garbage the code under test left.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Callable, Dict, Iterator, Optional, Tuple

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.experiments.base import internet100_config, mesh100_config
from repro.experiments.gr_faults import _fx1_config
from repro.experiments.parallel import execute_sweep
from repro.sim.engine import Engine
from repro.topology.scale import powerlaw_topology
from repro.trace.sinks import MemorySink
from repro.trace.tracer import Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig, run_scenario


@contextlib.contextmanager
def automatic_collection(enabled: bool) -> Iterator[None]:
    """Switch the automatic collector on or off, restoring it after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _leftover_after_episode(
    config: ScenarioConfig, pulses: int, tracer: Optional[Tracer] = None
) -> int:
    """Cyclic garbage left by one episode, with the scenario and result
    still referenced (so only what the episode discarded is counted)."""
    gc.collect()  # drop whatever earlier cases left
    with automatic_collection(False):
        scenario, result = run_scenario(
            config, PulseSchedule.regular(pulses, 60.0), tracer=tracer
        )
        found = gc.collect()
    assert scenario.engine.events_executed > 0 and result.message_count > 0
    return found


_Case = Callable[[], Tuple[ScenarioConfig, Optional[Tracer]]]

EPISODES: Dict[str, _Case] = {
    "damped-mesh": lambda: (mesh100_config(), None),
    "undamped-mesh": lambda: (mesh100_config(damping=None), None),
    "damped-mesh-traced": lambda: (mesh100_config(), Tracer(MemorySink())),
    "internet100-rcn": lambda: (internet100_config(rcn=True), None),
    "powerlaw200-coalesced": lambda: (
        ScenarioConfig(
            topology=powerlaw_topology(200),
            damping=CISCO_DEFAULTS,
            coalesce_delivery=True,
        ),
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(EPISODES))
def test_an_episode_leaves_no_cyclic_garbage(case):
    config, tracer = EPISODES[case]()
    assert _leftover_after_episode(config, pulses=3, tracer=tracer) == 0


@pytest.mark.parametrize("graceful", [False, True], ids=["hard", "graceful"])
def test_a_router_crash_leaves_only_the_discarded_damping_state(graceful):
    # The 28 objects are the crashed router's old DampingManager, which
    # BgpRouter.restart() replaces with a fresh one: the manager and its
    # dict, four per-(peer, prefix) _Entry records, their PenaltyState
    # records with two array buffers each, and its reuse Timer with the
    # partial callback and bound methods that close the cycle.
    config = _fx1_config(graceful=graceful, crash=True)
    assert _leftover_after_episode(config, pulses=3) == 28


_DRIVES: Dict[str, Callable[[Engine], object]] = {
    "step": lambda engine: engine.step(),
    "run": lambda engine: engine.run(),
    "run_until_idle": lambda engine: engine.run_until_idle(max_time=10.0),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("drive", sorted(_DRIVES))
def test_the_drain_pauses_the_collector_and_restores_the_callers_setting(
    drive, enabled
):
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(gc.isenabled()))
    with automatic_collection(enabled):
        _DRIVES[drive](engine)
        assert gc.isenabled() is enabled
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("drive", sorted(_DRIVES))
def test_a_raising_callback_still_restores_the_collector(drive, enabled):
    def boom() -> None:
        raise RuntimeError("boom")

    engine = Engine()
    engine.schedule(1.0, boom)
    with automatic_collection(enabled):
        with pytest.raises(RuntimeError, match="boom"):
            _DRIVES[drive](engine)
        assert gc.isenabled() is enabled


def test_a_sweep_leaves_nothing_for_the_collector():
    config = mesh100_config()
    gc.collect()
    with automatic_collection(False):
        outcomes = execute_sweep(config, [0, 1, 2], jobs=1)
        assert gc.collect() == 0
    assert [outcome.pulses for outcome in outcomes] == [0, 1, 2]
