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


def test_route_is_a_value():
    a = route("b", "c")
    assert a == Route("p0", ("b", "c"), "b")
    assert a != Route("p1", ("b", "c"), "b")  # every field takes part
    assert a != Route("p0", ("b", "c"), "x")
    assert a != ("p0", ("b", "c"), "b") and a != None  # noqa: E711
    assert len({a, route("b", "c"), route("b", "d")}) == 2
    assert repr(a) == "Route(prefix='p0', as_path=('b', 'c'), learned_from='b')"
    assert not hasattr(a, "__dict__")  # slotted: one per update is kept


def test_route_errors_name_what_is_missing():
    with pytest.raises(ProtocolError, match="prefix must be non-empty"):
        Route("", ("a",), "a")
    with pytest.raises(ProtocolError, match="'p0' must have a non-empty AS path"):
        Route("p0", (), "a")


def test_equal_paths_share_one_tuple():
    assert route("b", "c").as_path is route(*["b", "c"]).as_path


def test_routes_and_preferences_survive_a_warm_state_snapshot():
    import pickle

    from repro.core.selective import RelativePreference
    from repro.experiments.base import small_mesh_config
    from repro.workload.scenarios import Scenario, WarmStateSnapshot

    source = Scenario(small_mesh_config())
    source.warm_up()
    restored = WarmStateSnapshot.from_scenario(source).restore()
    prefix = source.config.prefix
    for name, router in source.routers.items():
        twin = restored.routers[name]
        best = twin.best_route(prefix)
        assert best == router.best_route(prefix) and best is not router.best_route(prefix)
        assert hash(best) == hash(router.best_route(prefix))
        for peer in router.neighbors:
            ours = router.rib_out(peer).entry(prefix)
            theirs = twin.rib_out(peer).entry(prefix)
            assert theirs.route == ours.route
            assert theirs.last_announced_length == ours.last_announced_length
    tag = RelativePreference(-1, 4)
    assert pickle.loads(pickle.dumps(tag)) == tag


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
