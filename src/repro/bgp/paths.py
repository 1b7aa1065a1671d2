"""Flyweight interning of AS paths.

At 10k+ nodes a flap episode materialises millions of :class:`Route`
objects whose AS paths are drawn from a far smaller population — every
router on a propagation tree re-announces the *same* path suffix with
one AS prepended. Storing each path tuple once and sharing the object
cuts resident memory roughly in half on large graphs and makes
path-equality checks (duplicate detection, Adj-RIB-Out deltas, Loc-RIB
no-op updates) pointer comparisons in the common case.

:class:`PathTable` maps path tuples to dense small integers. Interning
is append-only: the id of a path never changes for the lifetime of the
table, and pickling preserves the id assignment exactly (the table
pickles as its ordered path list and rebuilds the same mapping), which
is what lets warm-state snapshots round-trip without perturbing ids.

The canonical-object contract is deliberately *observation-free*:
``canonical(p) == p`` always, so code that compares, hashes, slices or
iterates paths behaves identically whether or not its inputs were
interned. Digest identity on every existing figure is the regression
test for that contract (see docs/SCALING.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

Path = Tuple[str, ...]


class PathTable:
    """Append-only intern table mapping AS-path tuples to dense ids."""

    __slots__ = ("_ids", "_paths")

    def __init__(self, paths: Iterable[Path] = ()) -> None:
        self._ids: Dict[Path, int] = {}
        self._paths: List[Path] = []
        for path in paths:
            self.intern(path)

    def intern(self, path: Path) -> int:
        """The id for ``path``, assigning the next dense id if new."""
        path_id = self._ids.get(path)
        if path_id is None:
            path = tuple(path)
            path_id = len(self._paths)
            self._paths.append(path)
            self._ids[path] = path_id
        return path_id

    def canonical(self, path: Path) -> Path:
        """The one shared tuple object equal to ``path``.

        Interns ``path`` on first sight; all later calls with an equal
        tuple return the same object, so ``==`` can short-circuit to
        ``is`` for interned paths.
        """
        return self._paths[self.intern(path)]

    def resolve(self, path_id: int) -> Path:
        """The path tuple registered under ``path_id``."""
        return self._paths[path_id]

    def id_of(self, path: Path) -> int:
        """The id of an already-interned path (KeyError if unknown)."""
        return self._ids[path]

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: object) -> bool:
        return path in self._ids

    def stats(self) -> Dict[str, int]:
        """Occupancy counters for diagnostics (``topo stats``/SCALING.md)."""
        return {
            "paths": len(self._paths),
            "hops": sum(len(p) for p in self._paths),
        }

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[Path, ...]]]:
        # Pickle as the ordered path list: rebuilding in order reassigns
        # identical ids, so snapshots restored in a worker resolve the
        # same id -> path mapping they were captured with.
        return (PathTable, (tuple(self._paths),))


# One process-wide table: the flyweight pool is only useful if every
# Route construction in the process shares it. Sweep workers each build
# their own as routes are re-interned on construction after unpickling.
_GLOBAL_TABLE = PathTable()


def global_path_table() -> PathTable:
    """The process-wide intern table used by :class:`repro.bgp.attrs.Route`."""
    return _GLOBAL_TABLE


def intern_path(path: Path) -> Path:
    """Canonicalize ``path`` through the process-wide table."""
    # PathTable.canonical, flattened: a hit (the common case by far) is
    # this one frame and a dict lookup.
    table = _GLOBAL_TABLE
    path_id = table._ids.get(path)
    if path_id is None:
        path_id = table.intern(path)
    return table._paths[path_id]
