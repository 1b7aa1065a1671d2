"""The network: a registry of nodes and links plus the delivery fabric.

:class:`Network` owns the wiring. Nodes are added by name, links connect
pairs of existing nodes, and :meth:`Network.send` routes a payload over the
direct link between two adjacent nodes. Observers can register a delivery
hook to count messages without subclassing anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import Link, LinkConfig
from repro.net.message import Message
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

DeliveryHook = Callable[[Message], None]

#: Observer of dropped messages: ``hook(message, reason)``. Reasons are
#: short stable strings (``link-down``, ``link-down-inflight``, ``loss``,
#: ``node-down``) consumed by metrics and traces.
DropHook = Callable[[Message, str], None]


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class Network:
    """A collection of nodes joined by point-to-point links."""

    def __init__(
        self,
        engine: Engine,
        rng: Optional[RngRegistry] = None,
        coalesce_delivery: bool = False,
    ) -> None:
        self.engine = engine
        self.rng = rng if rng is not None else RngRegistry(0)
        #: When True, links batch pending deliveries per direction behind
        #: a single engine event instead of scheduling one event per
        #: message (see :class:`repro.net.link._DeliveryBatch`). Message
        #: delivery *times* are identical either way; only the execution
        #: order of same-instant deliveries may differ, so large-graph
        #: scenarios opt in while the paper's figures keep the historical
        #: event order (and their committed digests).
        self.coalesce_delivery = coalesce_delivery
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._delivery_hooks: List[DeliveryHook] = []
        self._drop_hooks: List[DropHook] = []
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Causal tracer observing traffic (set by Tracer.attach).
        self.trace: Optional["Tracer"] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node``; names must be unique."""
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        node.attach(self)
        return node

    def add_link(self, a: str, b: str, config: Optional[LinkConfig] = None) -> Link:
        """Wire a bidirectional link between existing nodes ``a`` and ``b``."""
        if a not in self._nodes:
            raise ConfigurationError(f"unknown node {a!r}")
        if b not in self._nodes:
            raise ConfigurationError(f"unknown node {b!r}")
        key = _link_key(a, b)
        if key in self._links:
            raise ConfigurationError(f"link {a}-{b} already exists")
        link = Link(self, a, b, config or LinkConfig(), self.engine, self.rng)
        self._links[key] = link
        self._nodes[a].on_link_added(b, link)
        self._nodes[b].on_link_added(a, link)
        return link

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[_link_key(a, b)]
        except KeyError:
            raise SimulationError(f"no link between {a!r} and {b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        return _link_key(a, b) in self._links

    @property
    def nodes(self) -> Iterable[Node]:
        return self._nodes.values()

    @property
    def links(self) -> Iterable[Link]:
        return self._links.values()

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        return len(self._links)

    def degree(self, name: str) -> int:
        """Number of links attached to ``name``."""
        return len(self.node(name).neighbors)

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------

    def send(self, src: str, dst: str, payload: object) -> Message:
        """Send ``payload`` over the direct link from ``src`` to ``dst``."""
        return self.link(src, dst).send(src, payload)

    def deliver(self, message: Message) -> None:
        """Called by links when a message arrives; dispatches to the node."""
        node = self._nodes[message.dst]
        if not node.alive:
            # The destination crashed while the message was in flight:
            # nothing is listening on the session any more.
            self.note_drop(message, "node-down")
            return
        self.messages_delivered += 1
        if self.trace is not None:
            self.trace.note_recv(message, self.engine.now)
        for hook in self._delivery_hooks:
            hook(message)
        node.handle_message(message)

    def note_drop(self, message: Message, reason: str) -> None:
        """Record a dropped message: counter, trace record, and hooks.

        Called by links (down / impaired) and by :meth:`deliver` when the
        destination node is crashed — every path a message can vanish on
        funnels through here so losses stay observable.
        """
        self.messages_dropped += 1
        if self.trace is not None:
            self.trace.note_drop(message, self.engine.now, reason)
        for hook in self._drop_hooks:
            hook(message, reason)

    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        """Observe every delivered message (metrics, tracing)."""
        self._delivery_hooks.append(hook)

    def add_drop_hook(self, hook: DropHook) -> None:
        """Observe every dropped message with its drop reason."""
        self._drop_hooks.append(hook)

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Fail or restore the link between ``a`` and ``b``.

        The link stops (or resumes) delivering messages, and both
        endpoints are notified through :meth:`Node.on_link_state` so
        protocol sessions can be torn down / re-established. A no-op if
        the link is already in the requested state.
        """
        link = self.link(a, b)
        if link.up == up:
            return
        link.set_up(up)
        self._nodes[a].on_link_state(b, up)
        self._nodes[b].on_link_state(a, up)

    # ------------------------------------------------------------------
    # node failure / recovery orchestration (fault injection)
    # ------------------------------------------------------------------

    def crash_router(self, name: str) -> None:
        """Crash ``name``: the node loses its control state and every
        neighbour is told the session died.

        Neighbour notification carries the crashed node's graceful-restart
        configuration (``None`` for a hard crash): GR-capable neighbours
        retain the crashed peer's routes as *stale* under a restart timer
        instead of withdrawing them (see
        :mod:`repro.bgp.graceful_restart`). Messages in flight to the
        crashed node are dropped on delivery with reason ``node-down``.
        """
        node = self.node(name)
        if not node.alive:
            raise SimulationError(f"cannot crash {name!r}: already down")
        node.crash()
        graceful = node.graceful_restart_config
        for neighbor in node.neighbors:
            self._nodes[neighbor].on_peer_crash(name, graceful)

    def restart_router(self, name: str) -> None:
        """Bring a crashed ``name`` back: the node restarts with empty
        RIBs (re-originating its own prefixes) and every neighbour
        re-establishes the session and re-advertises its table."""
        node = self.node(name)
        if node.alive:
            raise SimulationError(f"cannot restart {name!r}: not crashed")
        node.restart()
        for neighbor in node.neighbors:
            self._nodes[neighbor].on_peer_restart(name)

    def reset_session(self, a: str, b: str) -> None:
        """Bounce the BGP session between adjacent ``a`` and ``b`` without
        touching the physical link: both ends see the session drop and
        immediately re-establish (implicit withdrawal + re-advertisement),
        the way an administrative ``clear bgp`` behaves."""
        self.link(a, b)  # validates adjacency
        self._nodes[a].on_link_state(b, False)
        self._nodes[b].on_link_state(a, False)
        self._nodes[a].on_link_state(b, True)
        self._nodes[b].on_link_state(a, True)

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's start hook (idempotent nodes expected)."""
        for node in self._nodes.values():
            node.start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(nodes={self.node_count}, links={self.link_count})"
