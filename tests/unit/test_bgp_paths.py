"""Unit tests for AS-path interning (repro.bgp.paths.PathTable)."""

from __future__ import annotations

import pickle

from repro.bgp.attrs import Route
from repro.bgp.paths import PathTable, global_path_table, intern_path


def test_canonical_returns_one_shared_tuple_per_value():
    table = PathTable()
    first = table.canonical(tuple(["as1", "as2"]))
    second = table.canonical(tuple(["as1", "as2"]))
    assert first is second
    assert table.canonical(("as1", "as2", "as3")) is not first
    assert len(table) == 2


def test_id_of_and_contains():
    table = PathTable()
    path = ("as1", "as2")
    assert path not in table
    table.canonical(path)
    assert path in table
    assert ("as2", "as1") not in table


def test_stats_counts_paths_and_hops():
    table = PathTable([("as1",)])
    table.canonical(("as1", "as2", "as3"))
    stats = table.stats()
    assert stats["paths"] == 2
    assert stats["hops"] == 4


def test_pickle_preserves_ids_and_contents():
    paths = [("as1",), ("as1", "as2"), ("as3",)]
    table = PathTable(paths)
    clone = pickle.loads(pickle.dumps(table))
    assert len(clone) == len(table)
    assert clone.stats() == table.stats()
    for path in paths:
        assert path in clone
        assert clone.canonical(path) is clone.canonical(tuple(path))
    clone.canonical(("as4",))
    assert len(clone) == len(paths) + 1


def test_global_intern_path_deduplicates():
    a = intern_path(("as77", "as78"))
    b = intern_path(("as77", "as78"))
    assert a is b
    assert ("as77", "as78") in global_path_table()


def test_routes_with_equal_paths_share_the_tuple():
    first = Route(prefix="10.0.0.0/8", as_path=("as1", "as2"), learned_from="as1")
    second = Route(prefix="10.1.0.0/8", as_path=("as1", "as2"), learned_from="as1")
    assert first.as_path is second.as_path
    assert first == Route(
        prefix="10.0.0.0/8", as_path=("as1", "as2"), learned_from="as1"
    )
