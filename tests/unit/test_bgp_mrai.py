"""Unit tests for the MRAI rate limiter."""

from __future__ import annotations

import pytest

from repro.bgp.mrai import MraiConfig, MraiLimiter
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class FlushProbe:
    def __init__(self, send: bool = True) -> None:
        self.send = send
        self.calls = []

    def __call__(self, peer: str, prefixes: set) -> bool:
        self.calls.append((peer, set(prefixes)))
        return self.send


@pytest.fixture
def engine():
    return Engine()


def make_limiter(engine, config=None, send=True):
    probe = FlushProbe(send=send)
    limiter = MraiLimiter(
        engine, config or MraiConfig(base=30.0), "r1", RngRegistry(1), probe
    )
    return limiter, probe


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MraiConfig(base=-1.0)
    with pytest.raises(ConfigurationError):
        MraiConfig(jitter_low=0.0)
    with pytest.raises(ConfigurationError):
        MraiConfig(jitter_low=0.9, jitter_high=0.8)


def test_disabled_mrai_always_allows(engine):
    limiter, _ = make_limiter(engine, MraiConfig(base=0.0))
    assert limiter.may_send_now("p")
    limiter.note_sent("p")
    assert limiter.may_send_now("p")


def test_send_starts_holdoff(engine):
    limiter, _ = make_limiter(engine)
    assert limiter.may_send_now("p")
    limiter.note_sent("p")
    assert not limiter.may_send_now("p")


def test_holdoff_is_per_peer(engine):
    limiter, _ = make_limiter(engine)
    limiter.note_sent("p1")
    assert not limiter.may_send_now("p1")
    assert limiter.may_send_now("p2")


def test_holdoff_duration_is_jittered_base(engine):
    limiter, _ = make_limiter(engine)
    limiter.note_sent("p")
    # Jitter range [0.75, 1.0] x 30s.
    engine.run(until=30.0 * 0.74)
    assert not limiter.may_send_now("p")
    engine.run(until=31.0)
    assert limiter.may_send_now("p")


def test_deferred_prefixes_flushed_on_expiry(engine):
    limiter, probe = make_limiter(engine)
    limiter.note_sent("p")
    limiter.defer("p", "p0")
    limiter.defer("p", "p1")
    engine.run()
    assert probe.calls == [("p", {"p0", "p1"})]


def test_timer_restarts_when_flush_sends(engine):
    limiter, probe = make_limiter(engine, send=True)
    limiter.note_sent("p")
    limiter.defer("p", "p0")
    engine.run(until=40.0)
    assert len(probe.calls) == 1
    assert not limiter.may_send_now("p")  # restarted


def test_timer_goes_idle_when_flush_sends_nothing(engine):
    limiter, probe = make_limiter(engine, send=False)
    limiter.note_sent("p")
    limiter.defer("p", "p0")
    engine.run()
    assert len(probe.calls) == 1
    assert limiter.may_send_now("p")
    assert engine.pending_count == 0  # queue drains


def test_expiry_without_pending_is_silent(engine):
    limiter, probe = make_limiter(engine)
    limiter.note_sent("p")
    engine.run()
    assert probe.calls == []
    assert limiter.may_send_now("p")


def test_pending_prefixes_query(engine):
    limiter, _ = make_limiter(engine)
    limiter.note_sent("p")
    limiter.defer("p", "p0")
    assert limiter.pending_prefixes("p") == {"p0"}
    assert limiter.pending_prefixes("other") == set()
    assert limiter.has_pending()


def test_defer_without_holdoff_rejected(engine):
    from repro.errors import TimerError

    limiter, _ = make_limiter(engine)
    with pytest.raises(TimerError):
        limiter.defer("p", "p0")


def test_duplicate_defer_collapses(engine):
    limiter, probe = make_limiter(engine)
    limiter.note_sent("p")
    limiter.defer("p", "p0")
    limiter.defer("p", "p0")
    engine.run(until=40.0)
    assert probe.calls == [("p", {"p0"})]


def test_jitter_draws_what_uniform_would_bit_for_bit(engine):
    """The interval is computed without ``random.uniform``'s frame; it
    must stay the same float from the same draw of the ``mrai:`` stream."""
    from unittest import mock

    from repro.sim.timers import Timer

    config = MraiConfig(base=30.0, jitter_low=0.75, jitter_high=1.0)
    rng = RngRegistry(42)
    limiter = MraiLimiter(engine, config, "r1", rng, FlushProbe())
    twin = RngRegistry(42).stream("mrai:r1")
    with mock.patch.object(Timer, "reschedule", autospec=True) as reschedule:
        for _ in range(10_000):
            limiter.note_sent("p")
    delays = [call.args[1] for call in reschedule.call_args_list]
    assert delays == [
        config.base * twin.uniform(config.jitter_low, config.jitter_high)
        for _ in range(10_000)
    ]
    assert rng.stream("mrai:r1").random() == twin.random()  # same draw count


def test_dirty_set_is_allocated_by_the_first_defer(engine):
    limiter, _ = make_limiter(engine)
    limiter.note_sent("p")
    assert limiter.pending_prefixes("p") == set()
    assert limiter._peers["p"].dirty is None
    limiter.defer("p", "p0")
    assert limiter.pending_prefixes("p") == {"p0"}
