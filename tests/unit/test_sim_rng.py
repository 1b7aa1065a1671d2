"""Unit tests for named random streams."""

from __future__ import annotations

import random

from repro.sim.rng import RngRegistry


def test_same_name_same_stream_object():
    registry = RngRegistry(1)
    assert registry.stream("a") is registry.stream("a")


def test_same_seed_same_sequence():
    a = RngRegistry(99).stream("mrai")
    b = RngRegistry(99).stream("mrai")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_different_sequences():
    registry = RngRegistry(99)
    seq_a = [registry.stream("a").random() for _ in range(5)]
    seq_b = [registry.stream("b").random() for _ in range(5)]
    assert seq_a != seq_b


def test_different_seeds_different_sequences():
    a = [RngRegistry(1).stream("x").random() for _ in range(5)]
    b = [RngRegistry(2).stream("x").random() for _ in range(5)]
    assert a != b


def test_stream_independent_of_creation_order():
    registry1 = RngRegistry(5)
    registry1.stream("first")
    value1 = registry1.stream("second").random()
    registry2 = RngRegistry(5)
    value2 = registry2.stream("second").random()
    assert value1 == value2


def test_uniform_within_bounds():
    registry = RngRegistry(3)
    for _ in range(100):
        value = registry.uniform("jitter", 0.75, 1.0)
        assert 0.75 <= value <= 1.0


def test_master_seed_property():
    assert RngRegistry(42).master_seed == 42


def test_stream_draws_are_pinned():
    """Streams are plain ``random.Random(seed)``; pin the derivation
    (SHA-256 of master seed and name) and generator directly so a change
    to either is caught here and not only through episode digests."""
    stream = RngRegistry(42).stream("link:a-b")
    assert type(stream) is random.Random
    assert [stream.random() for _ in range(3)] == [
        0.044582106456587334,
        0.5642506281975684,
        0.24628455379415726,
    ]
