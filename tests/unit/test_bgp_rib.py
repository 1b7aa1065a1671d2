"""Unit tests for the RIB tables and update classification."""

from __future__ import annotations

from repro.bgp.attrs import Route
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib
from repro.core.params import UpdateKind
from repro.core.rcn import RootCause


def rc(seq: int) -> RootCause:
    return RootCause(link=("o", "i"), status="down", seq=seq)


class TestAdjRibIn:
    def test_first_announcement_classifies_none(self):
        table = AdjRibIn("peer")
        assert table.classify("p0", ("peer", "o")) is None

    def test_withdrawal_of_unknown_prefix_classifies_none(self):
        table = AdjRibIn("peer")
        assert table.classify("p0", None) is None

    def test_withdrawal_of_known_route(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), None)
        assert table.classify("p0", None) is UpdateKind.WITHDRAWAL

    def test_duplicate_withdrawal_classifies_none(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), None)
        table.apply("p0", None, None)
        assert table.classify("p0", None) is None

    def test_reannouncement_after_withdrawal(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), None)
        table.apply("p0", None, None)
        assert table.classify("p0", ("peer", "o")) is UpdateKind.REANNOUNCEMENT

    def test_attribute_change(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), None)
        assert table.classify("p0", ("peer", "x", "o")) is UpdateKind.ATTRIBUTE_CHANGE

    def test_duplicate_announcement(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), None)
        assert table.classify("p0", ("peer", "o")) is UpdateKind.DUPLICATE

    def test_apply_stores_route_and_cause(self):
        table = AdjRibIn("peer")
        entry = table.apply("p0", ("peer", "o"), rc(1))
        assert entry.route == Route(prefix="p0", as_path=("peer", "o"), learned_from="peer")
        assert entry.root_cause == rc(1)
        assert entry.ever_announced

    def test_apply_withdrawal_clears_route_keeps_flag(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), rc(1))
        entry = table.apply("p0", None, rc(2))
        assert entry.route is None
        assert entry.ever_announced
        assert entry.root_cause == rc(2)

    def test_route_accessor(self):
        table = AdjRibIn("peer")
        assert table.route("p0") is None
        table.apply("p0", ("peer", "o"), None)
        assert table.route("p0").as_path == ("peer", "o")

    def test_prefixes(self):
        table = AdjRibIn("peer")
        table.apply("p0", ("peer", "o"), None)
        table.apply("p1", None, None)
        assert sorted(table.prefixes()) == ["p0", "p1"]
        assert len(table) == 2


class TestLocRib:
    def test_set_and_get(self):
        rib = LocRib()
        route = Route(prefix="p0", as_path=("a",), learned_from="a")
        assert rib.set_route("p0", route) is True
        assert rib.route("p0") == route

    def test_set_same_route_is_no_change(self):
        rib = LocRib()
        route = Route(prefix="p0", as_path=("a",), learned_from="a")
        rib.set_route("p0", route)
        assert rib.set_route("p0", route) is False

    def test_clear_route(self):
        rib = LocRib()
        route = Route(prefix="p0", as_path=("a",), learned_from="a")
        rib.set_route("p0", route)
        assert rib.set_route("p0", None) is True
        assert rib.route("p0") is None
        assert rib.set_route("p0", None) is False

    def test_change_route(self):
        rib = LocRib()
        first = Route(prefix="p0", as_path=("a",), learned_from="a")
        second = Route(prefix="p0", as_path=("b", "a"), learned_from="b")
        rib.set_route("p0", first)
        assert rib.set_route("p0", second) is True
        assert rib.route("p0") == second

    def test_iteration_and_len(self):
        rib = LocRib()
        rib.set_route("p0", Route(prefix="p0", as_path=("a",), learned_from="a"))
        assert len(rib) == 1
        assert [prefix for prefix, _ in rib] == ["p0"]
        assert rib.prefixes() == ["p0"]


class TestAdjRibOut:
    def test_initially_nothing_announced(self):
        table = AdjRibOut("peer")
        assert table.announced_route("p0") is None

    def test_entry_is_created_once_and_handed_out(self):
        table = AdjRibOut("peer")
        entry = table.entry("p0")
        assert entry.route is None and entry.last_announced_length is None
        assert table.entry("p0") is entry
        assert table.entries == {"p0": entry}
        # The holder of the entry updates it; the table sees the change.
        route = Route(prefix="p0", as_path=("me", "o"), learned_from="me")
        entry.route = route
        entry.last_announced_length = 2
        assert table.announced_route("p0") == route

    def test_announced_route_does_not_create_an_entry(self):
        table = AdjRibOut("peer")
        assert table.announced_route("p0") is None
        assert table.entries == {}

    def test_prefixes(self):
        table = AdjRibOut("peer")
        table.entry("p0")
        assert table.prefixes() == ["p0"]
