"""Base class for anything attached to the network.

A :class:`Node` has a name, knows its neighbours (discovered when links
are wired up), and receives delivered messages through
:meth:`Node.handle_message`. Protocol behaviour lives in subclasses —
see :class:`repro.bgp.router.BgpRouter`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.network import Network


class Node:
    """A named participant in the network."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._network: "Network" = None  # type: ignore[assignment]
        #: Neighbour name -> the link to it, in attachment order (filled
        #: by :meth:`Network.add_link`); the keys are the neighbour list.
        self._links: Dict[str, "Link"] = {}
        #: False while the node is crashed: the network drops messages
        #: addressed to it instead of dispatching (see
        #: :meth:`repro.net.network.Network.crash_router`).
        self.alive = True

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a network")
        return self._network

    @property
    def neighbors(self) -> List[str]:
        """Names of directly connected nodes, in attachment order."""
        return list(self._links)

    def attach(self, network: "Network") -> None:
        """Called by :class:`Network` when the node is added."""
        self._network = network

    def on_link_added(self, neighbor: str, link: "Link") -> None:
        """Called by :class:`Network` when ``link`` to ``neighbor`` is wired."""
        self._links[neighbor] = link

    def send(self, neighbor: str, payload: object) -> Message:
        """Send ``payload`` over the direct link to ``neighbor``."""
        link = self._links.get(neighbor)
        if link is None:
            # Not adjacent (or not attached): the network raises for both.
            return self.network.send(self.name, neighbor, payload)
        return link.send(self.name, payload)

    def handle_message(self, message: Message) -> None:
        """Process a delivered message. Subclasses override."""
        raise NotImplementedError

    def on_link_state(self, neighbor: str, up: bool) -> None:
        """Called when the direct link to ``neighbor`` changes state.

        Default: no-op. Routing protocols override this to tear down /
        re-establish the session (see
        :meth:`repro.bgp.router.BgpRouter.on_link_state`).
        """

    @property
    def graceful_restart_config(self) -> object:
        """This node's advertised graceful-restart capability (``None``
        unless a protocol subclass overrides it)."""
        return None

    def crash(self) -> None:
        """Take the node down (control state lost). Subclasses extend to
        quiesce timers and drop protocol tables; called by
        :meth:`repro.net.network.Network.crash_router`."""
        self.alive = False

    def restart(self) -> None:
        """Bring a crashed node back with fresh control state."""
        self.alive = True

    def on_peer_crash(self, peer: str, graceful: object = None) -> None:
        """Called when the directly connected ``peer`` crashes.

        ``graceful`` is the crashed peer's graceful-restart configuration
        (a :class:`repro.bgp.graceful_restart.GracefulRestartConfig`) or
        ``None`` for a hard crash. Default: no-op; BGP routers override
        to tear the session down or enter GR helper mode.
        """

    def on_peer_restart(self, peer: str) -> None:
        """Called when the directly connected ``peer`` comes back up.

        Default: no-op. BGP routers override to re-establish the session
        and re-advertise their table.
        """

    def start(self) -> None:
        """Hook invoked once when the simulation begins. Optional."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, degree={len(self._links)})"
