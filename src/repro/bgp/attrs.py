"""Route attributes.

A :class:`Route` is what lives in RIB tables: the destination prefix, the
AS path as received (the sending peer's ASN first, the originating ASN
last), and the peer it was learned from. Routes are never mutated and are
value-compared, which makes "did this update change anything?"
(duplicate detection, Adj-RIB-Out deltas) a simple equality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.bgp.paths import intern_path
from repro.errors import ProtocolError


@dataclass(init=False, unsafe_hash=True)
class Route:
    """One path to ``prefix`` as stored in a RIB.

    ``as_path[0]`` is the ASN of the neighbour that announced the route
    (BGP speakers prepend themselves when announcing); ``as_path[-1]`` is
    the originating AS. ``learned_from`` is the peer whose Adj-RIB-In the
    route sits in — for routes in Loc-RIB it records where the best route
    came from; for self-originated routes it equals the local ASN.

    Slotted, with a hand-written ``__init__`` (the dataclass only adds
    value ``__eq__`` / ``__hash__`` and the ``repr``): one is built per
    received update and per best-path change. Instances are shared
    between RIBs and hashed by value: never mutate one.
    """

    __slots__ = ("prefix", "as_path", "learned_from")

    prefix: str
    as_path: Tuple[str, ...]
    learned_from: str

    def __init__(self, prefix: str, as_path: Tuple[str, ...], learned_from: str) -> None:
        if not prefix:
            raise ProtocolError("route prefix must be non-empty")
        if not as_path:
            raise ProtocolError(f"route for {prefix!r} must have a non-empty AS path")
        self.prefix = prefix
        # Flyweight the path: equal paths share one tuple object, so the
        # equality tests below (and in the RIBs) usually short-circuit on
        # identity, and large-graph runs store each distinct path once.
        self.as_path = intern_path(as_path)
        self.learned_from = learned_from

    @property
    def path_length(self) -> int:
        """Number of ASes in the path (the decision-process metric)."""
        return len(self.as_path)

    def contains(self, asn: str) -> bool:
        """True when ``asn`` appears in the AS path (loop detection)."""
        return asn in self.as_path

    def __str__(self) -> str:
        return f"{self.prefix} via [{' '.join(self.as_path)}]"
