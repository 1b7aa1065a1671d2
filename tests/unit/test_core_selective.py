"""Unit tests for the selective-damping comparator (Mao et al.)."""

from __future__ import annotations

from repro.core.params import UpdateKind
from repro.core.selective import (
    RelativePreference,
    SelectiveDampingFilter,
    compare_paths,
)


def test_compare_paths_first_announcement():
    pref = compare_paths(None, 3)
    assert pref.direction == 0
    assert pref.path_length == 3


def test_compare_paths_worse():
    assert compare_paths(3, 5).direction == -1


def test_compare_paths_better():
    assert compare_paths(5, 3).direction == 1


def test_compare_paths_equal():
    assert compare_paths(4, 4).direction == 0


def test_relative_preference_is_a_value():
    tag = RelativePreference(-1, 5)
    assert tag == RelativePreference(direction=-1, path_length=5)
    assert tag != RelativePreference(1, 5) and tag != RelativePreference(-1, 4)
    assert tag != (-1, 5)
    assert hash(tag) == hash(RelativePreference(-1, 5))
    assert repr(tag) == "RelativePreference(direction=-1, path_length=5)"
    assert not hasattr(tag, "__dict__")
    assert compare_paths(3, 5) == tag


def test_withdrawals_always_charge():
    selective = SelectiveDampingFilter()
    assert selective.should_charge("p", UpdateKind.WITHDRAWAL, None) is True
    assert selective.charged_count == 1


def test_exploration_announcements_filtered():
    """Monotonically worsening announcements look like path exploration."""
    selective = SelectiveDampingFilter()
    selective.should_charge(
        "p", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(0, 3)
    )
    charged = selective.should_charge(
        "p", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(-1, 5)
    )
    assert charged is False
    assert selective.filtered_count == 1


def test_improvement_announcements_charge():
    """A route coming back better (e.g. after reuse) is charged — the
    blind spot that leaves secondary charging intact."""
    selective = SelectiveDampingFilter()
    selective.should_charge(
        "p", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(0, 5)
    )
    charged = selective.should_charge(
        "p", UpdateKind.REANNOUNCEMENT, RelativePreference(1, 3)
    )
    assert charged is True


def test_untagged_announcements_charge():
    selective = SelectiveDampingFilter()
    assert selective.should_charge("p", UpdateKind.ATTRIBUTE_CHANGE, None) is True


def test_inconsistent_worse_claim_charges():
    """A 'worse' tag whose path is actually shorter than the last one is
    rejected by the receiver-side consistency check."""
    selective = SelectiveDampingFilter()
    selective.should_charge(
        "p", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(0, 5)
    )
    charged = selective.should_charge(
        "p", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(-1, 3)
    )
    assert charged is True


def test_state_is_per_peer():
    selective = SelectiveDampingFilter()
    selective.should_charge("a", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(0, 3))
    # peer b has no history: a 'worse' claim is consistent by default.
    charged = selective.should_charge(
        "b", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(-1, 9)
    )
    assert charged is False


def test_withdrawal_resets_peer_history():
    selective = SelectiveDampingFilter()
    selective.should_charge("p", UpdateKind.ATTRIBUTE_CHANGE, RelativePreference(0, 3))
    selective.should_charge("p", UpdateKind.WITHDRAWAL, None)
    # After the withdrawal, a worse-tagged announcement is consistent again.
    charged = selective.should_charge(
        "p", UpdateKind.REANNOUNCEMENT, RelativePreference(-1, 4)
    )
    assert charged is False


def test_clear():
    selective = SelectiveDampingFilter()
    selective.should_charge("p", UpdateKind.WITHDRAWAL, None)
    selective.clear()
    assert selective.charged_count == 0
    assert selective.filtered_count == 0
