"""Unit tests for the DampingManager suppress/reuse state machine."""

from __future__ import annotations

import pytest

from repro.core.damping import DampingManager
from repro.core.params import CISCO_DEFAULTS, UpdateKind
from repro.sim.engine import Engine
from tests.reference.rfc2439 import DampedRoute, from_damping_params


class ReuseProbe:
    """Records reuse callbacks and returns a scripted noisy flag."""

    def __init__(self, noisy: bool = True) -> None:
        self.noisy = noisy
        self.calls = []

    def __call__(self, peer: str, prefix: str) -> bool:
        self.calls.append((peer, prefix))
        return self.noisy


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def probe():
    return ReuseProbe()


@pytest.fixture
def manager(engine, probe):
    return DampingManager(engine, CISCO_DEFAULTS, "r1", probe)


def charge_to_suppression(engine, manager, peer="p", prefix="d"):
    """Three quick withdrawals push the penalty over the Cisco cutoff."""
    for _ in range(3):
        outcome = manager.record_update(peer, prefix, UpdateKind.WITHDRAWAL)
    return outcome


def test_fresh_entry_not_suppressed(manager):
    assert not manager.is_suppressed("p", "d")
    assert manager.penalty_value("p", "d") == 0.0


def test_single_withdrawal_does_not_suppress(manager):
    outcome = manager.record_update("p", "d", UpdateKind.WITHDRAWAL)
    assert outcome.penalty == 1000.0
    assert not outcome.suppressed
    assert not outcome.newly_suppressed


def test_crossing_cutoff_suppresses(engine, manager):
    outcome = charge_to_suppression(engine, manager)
    assert outcome.newly_suppressed
    assert outcome.suppressed
    assert manager.is_suppressed("p", "d")
    assert manager.suppressed_entries() == [("p", "d")]


def reference_suppression():
    """The reference route after the same three withdrawals at t=0."""
    route = DampedRoute(from_damping_params(CISCO_DEFAULTS))
    for _ in range(3):
        route.update(0.0, route.config.increment("withdrawal"))
    return route


def test_suppression_sets_reuse_timer_at_decay_horizon(engine, manager):
    outcome = charge_to_suppression(engine, manager)
    route = reference_suppression()
    assert outcome.penalty == pytest.approx(route.figure_of_merit)
    assert manager.reuse_timer_expiry("p", "d") == pytest.approx(route.reuse_at)


def test_reuse_timer_fires_and_unsuppresses(engine, manager, probe):
    charge_to_suppression(engine, manager)
    engine.run()
    assert not manager.is_suppressed("p", "d")
    assert probe.calls == [("p", "d")]
    assert len(manager.reuse_events) == 1
    assert manager.reuse_events[0].noisy is True


def test_silent_reuse_recorded(engine):
    probe = ReuseProbe(noisy=False)
    manager = DampingManager(engine, CISCO_DEFAULTS, "r1", probe)
    charge_to_suppression(engine, manager)
    engine.run()
    assert manager.reuse_events[0].noisy is False
    assert manager.suppressions[0].noisy_reuse is False


def test_charge_during_suppression_reschedules_timer(engine, manager):
    charge_to_suppression(engine, manager)
    before = manager.reuse_timer_expiry("p", "d")
    outcome = manager.record_update("p", "d", UpdateKind.WITHDRAWAL)
    after = manager.reuse_timer_expiry("p", "d")
    assert outcome.rescheduled_reuse
    assert after > before
    assert manager.suppressions[0].recharges == [engine.now]


def test_uncharged_update_during_suppression_keeps_timer(engine, manager):
    """RCN-filtered updates must not postpone the reuse timer."""
    charge_to_suppression(engine, manager)
    before = manager.reuse_timer_expiry("p", "d")
    outcome = manager.record_update("p", "d", UpdateKind.WITHDRAWAL, charge=False)
    assert not outcome.rescheduled_reuse
    assert manager.reuse_timer_expiry("p", "d") == before
    assert manager.suppressions[0].recharges == []


def test_uncharged_update_does_not_change_penalty(engine, manager):
    manager.record_update("p", "d", UpdateKind.WITHDRAWAL)
    value = manager.penalty_value("p", "d")
    outcome = manager.record_update("p", "d", UpdateKind.WITHDRAWAL, charge=False)
    assert outcome.penalty == pytest.approx(value)
    assert not outcome.charged


def test_penalty_decays_between_updates(engine, manager):
    manager.record_update("p", "d", UpdateKind.WITHDRAWAL)
    engine.schedule(CISCO_DEFAULTS.half_life, lambda: None)
    engine.run()
    assert manager.penalty_value("p", "d") == pytest.approx(500.0)


def test_suppression_record_lifecycle(engine, manager):
    charge_to_suppression(engine, manager)
    record = manager.suppressions[0]
    assert record.peer == "p"
    assert record.started == engine.now
    assert record.ended is None
    engine.run()
    (started, penalty, reuse_at), = reference_suppression().suppressions
    assert (record.started, record.penalty_at_start) == pytest.approx((started, penalty))
    assert record.ended == pytest.approx(reuse_at)
    assert record.duration == pytest.approx(reuse_at - started)


def test_max_hold_down_bounds_suppression(engine, manager):
    """Even an absurd number of flaps cannot suppress past max hold-down."""
    for _ in range(100):
        manager.record_update("p", "d", UpdateKind.WITHDRAWAL)
    expiry = manager.reuse_timer_expiry("p", "d")
    assert expiry <= engine.now + CISCO_DEFAULTS.max_hold_down + 1e-6


def test_entries_are_per_peer_and_prefix(manager):
    charge_to_suppression(None, manager, peer="p1", prefix="d")
    assert manager.is_suppressed("p1", "d")
    assert not manager.is_suppressed("p2", "d")
    assert not manager.is_suppressed("p1", "other")


def test_suppression_observers_notified(engine, manager):
    events = []
    manager.suppression_observers.append(
        lambda time, peer, prefix, on: events.append((time, peer, prefix, on))
    )
    charge_to_suppression(engine, manager)
    engine.run()
    assert events[0][3] is True
    assert events[1][3] is False
    assert events[0][1] == "p"


def test_pending_reuse_timers_listing(engine, manager):
    charge_to_suppression(engine, manager, peer="p1")
    charge_to_suppression(engine, manager, peer="p2")
    pending = {
        key
        for key in manager.entry_keys()
        if manager.reuse_timer_expiry(*key) is not None
    }
    assert pending == {("p1", "d"), ("p2", "d")}


def test_reuse_timer_expiry_none_when_not_suppressed(manager):
    assert manager.reuse_timer_expiry("p", "d") is None


def test_second_suppression_after_reuse(engine, manager):
    charge_to_suppression(engine, manager)
    engine.run()
    assert not manager.is_suppressed("p", "d")
    # Charge hard again: the decayed remnant plus three fresh withdrawals
    # re-crosses the cutoff.
    charge_to_suppression(engine, manager)
    assert manager.is_suppressed("p", "d")
    assert len(manager.suppressions) == 2


def test_outcome_flags_on_plain_update(manager):
    outcome = manager.record_update("p", "d", UpdateKind.ATTRIBUTE_CHANGE)
    assert outcome.charged
    assert not outcome.suppressed
    assert not outcome.rescheduled_reuse
