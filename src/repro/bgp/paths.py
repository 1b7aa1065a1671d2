"""Flyweight interning of AS paths.

At 10k+ nodes a flap episode materialises millions of :class:`Route`
objects whose AS paths are drawn from a far smaller population — every
router on a propagation tree re-announces the *same* path suffix with
one AS prepended. Storing each path tuple once and sharing the object
cuts resident memory roughly in half on large graphs and makes
path-equality checks (duplicate detection, Adj-RIB-Out deltas, Loc-RIB
no-op updates) pointer comparisons in the common case.

:class:`PathTable` is one canonicalising dict: each distinct path maps
to the first tuple object seen with that value. It pickles like any
dict, so a warm-state snapshot restores a table holding the same paths.

The canonical-object contract is deliberately *observation-free*:
``canonical(p) == p`` always, so code that compares, hashes, slices or
iterates paths behaves identically whether or not its inputs were
interned. Digest identity on every existing figure is the regression
test for that contract (see docs/SCALING.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

Path = Tuple[str, ...]


class PathTable:
    """Intern table holding one shared tuple per distinct AS path."""

    __slots__ = ("_paths",)

    def __init__(self, paths: Iterable[Path] = ()) -> None:
        self._paths: Dict[Path, Path] = {path: path for path in paths}

    def canonical(self, path: Path) -> Path:
        """The one shared tuple object equal to ``path``.

        Interns ``path`` on first sight; all later calls with an equal
        tuple return the same object, so ``==`` can short-circuit to
        ``is`` for interned paths.
        """
        return self._paths.setdefault(path, path)

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: object) -> bool:
        return path in self._paths

    def stats(self) -> Dict[str, int]:
        """Occupancy counters for diagnostics (``topo stats``/SCALING.md)."""
        return {
            "paths": len(self._paths),
            "hops": sum(len(p) for p in self._paths),
        }


# One process-wide table: the flyweight pool is only useful if every
# Route construction in the process shares it. Sweep workers each build
# their own as routes are re-interned on construction after unpickling.
_GLOBAL_TABLE = PathTable()


def global_path_table() -> PathTable:
    """The process-wide intern table used by :class:`repro.bgp.attrs.Route`."""
    return _GLOBAL_TABLE


#: Canonicalize a path through the process-wide table: the bound method
#: itself, so interning costs the same one frame as a plain function.
intern_path = _GLOBAL_TABLE.canonical
