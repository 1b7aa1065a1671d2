"""Unit tests for Route attributes and UpdateMessage."""

from __future__ import annotations

import pytest

from repro.bgp.attrs import Route
from repro.bgp.messages import UpdateMessage
from repro.core.rcn import RootCause
from repro.errors import ProtocolError


def route(*path: str) -> Route:
    return Route(prefix="p0", as_path=tuple(path), learned_from=path[0])


def test_route_fields():
    r = route("b", "c", "origin")
    assert r.path_length == 3
    assert r.as_path[-1] == "origin"
    assert r.as_path[0] == "b"
    assert r.learned_from == "b"


def test_route_requires_prefix_and_path():
    with pytest.raises(ProtocolError):
        Route(prefix="", as_path=("a",), learned_from="a")
    with pytest.raises(ProtocolError):
        Route(prefix="p0", as_path=(), learned_from="a")


def test_route_contains():
    r = route("b", "c")
    assert r.contains("b")
    assert r.contains("c")
    assert not r.contains("z")


def test_route_equality_and_hash():
    a = route("b", "c")
    b = route("b", "c")
    assert a == b
    assert hash(a) == hash(b)
    assert a != route("b", "d")


def test_route_str():
    assert str(route("b", "c")) == "p0 via [b c]"


def test_update_announcement():
    update = UpdateMessage(prefix="p0", as_path=("a", "b"))
    assert update.is_announcement
    assert not update.is_withdrawal


def test_update_withdrawal():
    update = UpdateMessage(prefix="p0", as_path=None)
    assert update.is_withdrawal
    assert not update.is_announcement


def test_update_validation():
    with pytest.raises(ProtocolError):
        UpdateMessage(prefix="", as_path=None)
    with pytest.raises(ProtocolError):
        UpdateMessage(prefix="p0", as_path=())


def test_update_ids_unique():
    a = UpdateMessage(prefix="p0", as_path=None)
    b = UpdateMessage(prefix="p0", as_path=None)
    assert a.update_id != b.update_id


def test_update_str_includes_root_cause():
    cause = RootCause(link=("o", "i"), status="down", seq=1)
    update = UpdateMessage(prefix="p0", as_path=("a",), root_cause=cause)
    assert "rc=" in str(update)
    assert "withdraw" in str(UpdateMessage(prefix="p0", as_path=None))
