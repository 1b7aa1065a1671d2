"""Routing Information Bases.

A BGP router keeps three kinds of tables (paper Figure 2):

- :class:`AdjRibIn` — one per peer, the routes as received (plus the
  root-cause attribute of the installing update, needed when a reused
  route is re-announced under RCN),
- :class:`LocRib` — the selected best route per prefix,
- :class:`AdjRibOut` — one per peer, the routes most recently announced
  to that peer (``None`` after an explicit withdrawal).

:meth:`AdjRibIn.classify` maps an incoming update onto the damping
update kinds of :class:`repro.core.params.UpdateKind`: withdrawal,
re-announcement, attribute change, or duplicate — the receiving-side
classification both vendors use for penalty increments.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.attrs import Route
from repro.core.params import UpdateKind
from repro.core.rcn import RootCause


class RibInEntry:
    """State of one (peer, prefix) slot in an Adj-RIB-In.

    ``route`` is ``None`` while the peer has the prefix withdrawn.
    ``ever_announced`` distinguishes a *first* announcement (no damping
    penalty — there was nothing to flap) from a *re*-announcement.

    A plain slotted class rather than a dataclass: one entry lives per
    (peer, prefix) for the whole run, so the per-instance ``__dict__``
    would dominate the table's footprint.
    """

    __slots__ = ("route", "root_cause", "ever_announced")

    def __init__(
        self,
        route: Optional[Route] = None,
        root_cause: Optional[RootCause] = None,
        ever_announced: bool = False,
    ) -> None:
        self.route = route
        self.root_cause = root_cause
        self.ever_announced = ever_announced


class AdjRibIn:
    """Routes received from one peer, by prefix."""

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self._entries: Dict[str, RibInEntry] = {}

    def entry(self, prefix: str) -> Optional[RibInEntry]:
        return self._entries.get(prefix)

    def route(self, prefix: str) -> Optional[Route]:
        entry = self._entries.get(prefix)
        return entry.route if entry is not None else None

    def prefixes(self) -> List[str]:
        return list(self._entries)

    def classify(self, prefix: str, as_path: Optional[Tuple[str, ...]]) -> Optional[UpdateKind]:
        """Classify an incoming update against the stored state.

        Returns ``None`` for updates that carry no information and should
        be ignored entirely: a withdrawal for a prefix the peer never
        announced (or already withdrew), or the very first announcement.
        """
        entry = self._entries.get(prefix)
        if as_path is None:
            if entry is None or entry.route is None:
                return None
            return UpdateKind.WITHDRAWAL
        if entry is None or not entry.ever_announced:
            return None
        if entry.route is None:
            return UpdateKind.REANNOUNCEMENT
        stored = entry.route.as_path
        if stored is as_path or stored == as_path:
            return UpdateKind.DUPLICATE
        return UpdateKind.ATTRIBUTE_CHANGE

    def apply(
        self,
        prefix: str,
        as_path: Optional[Tuple[str, ...]],
        root_cause: Optional[RootCause],
    ) -> RibInEntry:
        """Install an announcement or withdrawal and return the entry."""
        entry = self._entries.get(prefix)
        if entry is None:
            entry = RibInEntry()
            self._entries[prefix] = entry
        if as_path is None:
            entry.route = None
        else:
            entry.route = Route(prefix, as_path, self.peer)
            entry.ever_announced = True
        entry.root_cause = root_cause
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class LocRib:
    """The best route per prefix, as selected by the decision process."""

    def __init__(self) -> None:
        self._routes: Dict[str, Route] = {}

    def route(self, prefix: str) -> Optional[Route]:
        return self._routes.get(prefix)

    def set_route(self, prefix: str, route: Optional[Route]) -> bool:
        """Install (or clear, with ``None``) the best route.

        Returns ``True`` when the Loc-RIB actually changed.
        """
        current = self._routes.get(prefix)
        if route is None:
            if current is None:
                return False
            del self._routes[prefix]
            return True
        if current is not None and current == route:
            return False
        self._routes[prefix] = route
        return True

    def prefixes(self) -> List[str]:
        return list(self._routes)

    def __iter__(self) -> Iterator[Tuple[str, Route]]:
        return iter(self._routes.items())

    def __len__(self) -> int:
        return len(self._routes)


class RibOutEntry:
    """Last state announced to a peer for one prefix (slotted, like
    :class:`RibInEntry`).

    ``route`` is ``None`` before the first announcement and after a
    withdrawal. ``last_announced_length`` is the AS-path length of the
    last announcement, kept across withdrawals so the selective-damping
    preference tag can compare successive announcements.
    """

    __slots__ = ("route", "last_announced_length")

    def __init__(self) -> None:
        self.route: Optional[Route] = None
        self.last_announced_length: Optional[int] = None


class AdjRibOut:
    """Routes most recently sent to one peer, by prefix. The table hands
    out its entries: the router's export pass looks one up once and
    updates it in place when it sends."""

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self.entries: Dict[str, RibOutEntry] = {}

    def entry(self, prefix: str) -> RibOutEntry:
        """The entry for ``prefix``, created on first use."""
        existing = self.entries.get(prefix)
        if existing is None:
            existing = self.entries[prefix] = RibOutEntry()
        return existing

    def announced_route(self, prefix: str) -> Optional[Route]:
        existing = self.entries.get(prefix)
        return existing.route if existing is not None else None

    def prefixes(self) -> List[str]:
        return list(self.entries)
