"""Unit tests for declarative fault plans: validation and JSON round-trip."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultPlan,
    FlapStorm,
    LinkFault,
    LinkImpairment,
    RouterCrash,
    SessionReset,
)


def _full_plan() -> FaultPlan:
    return FaultPlan(
        name="demo",
        link_faults=(LinkFault(a="r1", b="r2", down_at=10.0, up_at=20.0),),
        crashes=(RouterCrash(router="r3", at=5.0, down_for=30.0),),
        session_resets=(SessionReset(a="r1", b="r3", at=15.0),),
        impairments=(
            LinkImpairment(a="r2", b="r3", start=0.0, duration=50.0, loss=0.1),
        ),
        storms=(
            FlapStorm(
                name="s0",
                links=(("r1", "r2"),),
                start=100.0,
                flaps=3,
                min_interval=5.0,
                max_interval=10.0,
                down_time=2.0,
            ),
        ),
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_link_fault_up_must_follow_down():
    with pytest.raises(ConfigurationError):
        LinkFault(a="r1", b="r2", down_at=10.0, up_at=10.0)


def test_negative_times_rejected():
    with pytest.raises(ConfigurationError):
        RouterCrash(router="r1", at=-1.0)
    with pytest.raises(ConfigurationError):
        SessionReset(a="r1", b="r2", at=-0.5)


def test_crash_down_for_must_be_positive():
    with pytest.raises(ConfigurationError):
        RouterCrash(router="r1", at=0.0, down_for=0.0)


def test_impairment_rates_bounded():
    with pytest.raises(ConfigurationError):
        LinkImpairment(a="r1", b="r2", start=0.0, loss=1.5)
    with pytest.raises(ConfigurationError):
        LinkImpairment(a="r1", b="r2", start=0.0, duplicate=-0.1)


def test_impairment_must_impair_something():
    with pytest.raises(ConfigurationError):
        LinkImpairment(a="r1", b="r2", start=0.0)


def test_storm_needs_links_and_positive_flaps():
    with pytest.raises(ConfigurationError):
        FlapStorm(
            name="s",
            links=(),
            start=0.0,
            flaps=1,
            min_interval=1.0,
            max_interval=2.0,
            down_time=1.0,
        )
    with pytest.raises(ConfigurationError):
        FlapStorm(
            name="s",
            links=(("a", "b"),),
            start=0.0,
            flaps=0,
            min_interval=1.0,
            max_interval=2.0,
            down_time=1.0,
        )


def test_storm_interval_ordering():
    with pytest.raises(ConfigurationError):
        FlapStorm(
            name="s",
            links=(("a", "b"),),
            start=0.0,
            flaps=1,
            min_interval=5.0,
            max_interval=1.0,
            down_time=1.0,
        )


def test_storm_stream_name_is_derived_from_storm_name():
    storm = _full_plan().storms[0]
    assert storm.stream_name == "fault:storm:s0"


def test_duplicate_storm_names_rejected():
    storm = _full_plan().storms[0]
    with pytest.raises(ConfigurationError):
        FaultPlan(storms=(storm, storm))


# ----------------------------------------------------------------------
# plan-level inspection
# ----------------------------------------------------------------------


def test_empty_plan_is_empty():
    plan = FaultPlan()
    assert plan.is_empty
    assert plan.action_count == 0
    assert plan.routers() == set()
    assert plan.links() == set()


def test_routers_and_links_cover_every_fault_kind():
    plan = _full_plan()
    assert plan.routers() == {"r1", "r2", "r3"}
    assert plan.links() == {("r1", "r2"), ("r1", "r3"), ("r2", "r3")}
    assert plan.action_count == 5
    assert not plan.is_empty


def test_links_are_order_normalised():
    plan = FaultPlan(link_faults=(LinkFault(a="z9", b="a1", down_at=1.0),))
    assert plan.links() == {("a1", "z9")}


def test_plan_is_hashable_and_comparable():
    # The plan participates in the warm-state cache key, so value
    # semantics matter: equal plans must hash equal.
    assert _full_plan() == _full_plan()
    assert hash(_full_plan()) == hash(_full_plan())


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------


def test_json_round_trip_preserves_plan():
    plan = _full_plan()
    assert FaultPlan.loads(plan.dumps()) == plan


def test_dumps_omits_empty_sections():
    text = FaultPlan(name="mini").dumps()
    assert "link_faults" not in text
    assert "storms" not in text


def test_loads_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown fault plan keys"):
        FaultPlan.loads('{"name": "x", "quakes": []}')


def test_loads_rejects_malformed_entries():
    with pytest.raises(ConfigurationError, match="malformed"):
        FaultPlan.loads('{"crashes": [{"router": "r1"}]}')
    with pytest.raises(ConfigurationError, match="must be a list"):
        FaultPlan.loads('{"crashes": {}}')
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        FaultPlan.loads("{nope")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_loads_rejects_non_finite_tokens(token):
    with pytest.raises(ConfigurationError, match=f"{token} is not a finite number"):
        FaultPlan.loads('{"crashes": [{"router": "r1", "at": %s}]}' % token)


def test_load_save_round_trip(tmp_path):
    plan = _full_plan()
    path = tmp_path / "plan.json"
    plan.save(str(path))
    assert FaultPlan.load(str(path)) == plan
