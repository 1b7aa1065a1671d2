"""Routing policies: shortest-path and no-valley (Gao–Rexford).

A policy answers two questions for a router:

- ``local_pref(peer, route)`` — how much the decision process should
  prefer routes learned from ``peer`` (higher wins),
- ``permits_export(route, to_peer)`` — whether the best route may be
  announced to ``to_peer``.

:class:`ShortestPathPolicy` is the paper's default: constant preference,
export to everyone (AS-path loop prevention is handled separately by the
router). :class:`NoValleyPolicy` implements the widely deployed
commercial-relationship policy used for the paper's Figure 15: prefer
customer routes over peer routes over provider routes, and only routes
learned from customers (or self-originated) are exported to everyone —
routes learned from peers or providers go to customers only, so no AS
transits traffic for a third party.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.bgp.attrs import Route


class Relationship(enum.Enum):
    """The business relationship a router has with one neighbour,
    from the router's own point of view."""

    CUSTOMER = "customer"  # the neighbour is my customer
    PEER = "peer"
    PROVIDER = "provider"  # the neighbour is my provider


#: ``relationship(router, neighbor) -> Relationship``
RelationshipFunction = Callable[[str, str], Relationship]


class RoutingPolicy:
    """Base class; behaves as shortest-path unless methods are overridden."""

    def local_pref(self, router: str, peer: str, route: Route) -> int:
        """Preference of ``route`` learned from ``peer`` (higher wins)."""
        del router, peer, route
        return 100

    def permits_export(self, router: str, route: Route, to_peer: str) -> bool:
        """May ``router`` announce ``route`` to ``to_peer``?

        The route's ``learned_from`` names the peer it came from, or the
        router itself for self-originated prefixes.
        """
        del router, route, to_peer
        return True

    @property
    def name(self) -> str:
        return type(self).__name__


class ShortestPathPolicy(RoutingPolicy):
    """The paper's default: no preference differences, export everywhere."""


class NoValleyPolicy(RoutingPolicy):
    """Gao–Rexford no-valley export with prefer-customer selection.

    Parameters
    ----------
    relationship:
        Function giving each router's relationship with each neighbour.
    prefer_customer:
        When ``True`` (the default, and standard practice), local
        preference is 300/200/100 for customer/peer/provider routes; when
        ``False`` the preference is constant and only the export rule
        applies.
    """

    _PREFS = {
        Relationship.CUSTOMER: 300,
        Relationship.PEER: 200,
        Relationship.PROVIDER: 100,
    }

    def __init__(self, relationship: RelationshipFunction, prefer_customer: bool = True) -> None:
        self._relationship = relationship
        self._prefer_customer = prefer_customer

    def local_pref(self, router: str, peer: str, route: Route) -> int:
        del route
        if not self._prefer_customer:
            return 100
        return self._PREFS[self._relationship(router, peer)]

    def permits_export(self, router: str, route: Route, to_peer: str) -> bool:
        if route.learned_from == router:
            return True  # self-originated: export to everyone
        learned_rel = self._relationship(router, route.learned_from)
        if learned_rel is Relationship.CUSTOMER:
            return True  # customer routes: export to everyone
        # Peer/provider routes: only to customers (no valleys, no
        # peer-to-peer transit).
        return self._relationship(router, to_peer) is Relationship.CUSTOMER
