"""Unit tests for the RFC-4724-style helper-side state machine."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.bgp.graceful_restart import GracefulRestartConfig, GracefulRestartHelper
from repro.errors import ConfigurationError
from repro.sim.engine import Engine


def _helper(engine: Engine) -> Tuple[GracefulRestartHelper, List[Tuple[str, List[str], Optional[int]]]]:
    flushes: List[Tuple[str, List[str], Optional[int]]] = []

    def on_expired(peer: str, prefixes: List[str], cause: Optional[int]) -> None:
        flushes.append((peer, prefixes, cause))

    return GracefulRestartHelper(engine, "r1", on_expired), flushes


def test_config_requires_positive_restart_time():
    with pytest.raises(ConfigurationError):
        GracefulRestartConfig(restart_time=0.0)


def test_peer_crashed_enters_helper_mode(engine):
    helper, _ = _helper(engine)
    config = GracefulRestartConfig(restart_time=60.0)
    assert helper.peer_crashed("r2", ["p0", "p1"], config) == 2
    assert helper.helping("r2")
    assert helper.is_stale("r2", "p0")
    assert helper.is_stale("r2", "p1")
    assert helper.stale_count() == 2


def test_crash_with_no_routes_does_not_enter_helper_mode(engine):
    helper, _ = _helper(engine)
    assert helper.peer_crashed("r2", [], GracefulRestartConfig()) == 0
    assert not helper.helping("r2")
    # No timer armed for an empty retention: nothing ever fires.
    engine.run_until_idle(max_time=1_000.0)
    assert helper.expiry_flushes == 0


def test_refresh_clears_stale_and_last_refresh_leaves_helper_mode(engine):
    helper, flushes = _helper(engine)
    helper.peer_crashed("r2", ["p0", "p1"], GracefulRestartConfig(restart_time=60.0))
    helper.note_update("r2", "p0")
    assert not helper.is_stale("r2", "p0")
    assert helper.helping("r2")
    helper.note_update("r2", "p1")
    assert not helper.helping("r2")
    # Timer was cancelled: no flush ever fires.
    engine.run_until_idle(max_time=1_000.0)
    assert flushes == []


def test_expiry_flushes_remaining_stale_sorted(engine):
    helper, flushes = _helper(engine)
    helper.peer_crashed(
        "r2", ["pz", "pa"], GracefulRestartConfig(restart_time=30.0), trace_cause=7
    )
    engine.run_until_idle(max_time=100.0)
    assert flushes == [("r2", ["pa", "pz"], 7)]
    assert helper.expiry_flushes == 1
    assert not helper.helping("r2")


def test_note_update_for_unknown_peer_is_noop(engine):
    helper, _ = _helper(engine)
    helper.note_update("stranger", "p0")  # must not raise


def test_second_crash_rearms_timer_and_merges_stale(engine):
    helper, flushes = _helper(engine)
    helper.peer_crashed("r2", ["p0"], GracefulRestartConfig(restart_time=50.0))
    # Advance the clock to t=30 (run_until_idle only moves the clock to
    # executed events, so give it one), then bounce the peer again: the
    # hold is re-armed from t=30, so nothing flushes at the original
    # t=50 deadline and the eventual flush carries both prefixes.
    engine.schedule_at(30.0, lambda: None, actor="test", tag="tick")
    engine.run_until_idle(max_time=30.0)
    helper.peer_crashed("r2", ["p1"], GracefulRestartConfig(restart_time=50.0))
    engine.run_until_idle(max_time=70.0)
    assert flushes == []
    engine.run_until_idle(max_time=100.0)
    assert flushes == [("r2", ["p0", "p1"], None)]


def test_cancel_all_timers_quiesces_helper(engine):
    helper, flushes = _helper(engine)
    helper.peer_crashed("r2", ["p0"], GracefulRestartConfig(restart_time=10.0))
    helper.peer_crashed("r3", ["p1"], GracefulRestartConfig(restart_time=10.0))
    assert helper.cancel_all_timers() == 2
    assert helper.stale_count() == 0
    engine.run_until_idle(max_time=100.0)
    assert flushes == []
