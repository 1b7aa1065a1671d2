"""Declarative fault plans: frozen data, JSON round-trip, full validation.

Every fault is a frozen dataclass with times *relative to episode start*
(the injector rebases onto the engine clock at install time). The plan
as a whole is hashable — it participates in the warm-state cache key —
and picklable, so a scenario that carries it can be snapshotted
(:class:`~repro.workload.scenarios.WarmStateSnapshot`).

Determinism contract: a plan contains no randomness of its own. The one
stochastic element, :class:`FlapStorm`, names the RNG stream its draws
come from (``fault:storm:<name>``); because
:class:`~repro.sim.rng.RngRegistry` seeds streams independently by
name, adding a storm never perturbs protocol jitter, and the same seed
always yields the same storm schedule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, check_number, reject_non_finite_token


def _check_name(value: object, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{what} must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class LinkFault:
    """Take the ``a``–``b`` link down at ``down_at``; optionally restore
    it at ``up_at`` (leave it down for the rest of the episode if ``None``)."""

    a: str
    b: str
    down_at: float
    up_at: Optional[float] = None

    def __post_init__(self) -> None:
        _check_name(self.a, "LinkFault.a")
        _check_name(self.b, "LinkFault.b")
        check_number("LinkFault.down_at", self.down_at, ge=0)
        if self.up_at is not None:
            check_number("LinkFault.up_at", self.up_at, gt=self.down_at)


@dataclass(frozen=True)
class RouterCrash:
    """Crash ``router`` at ``at``; restart it ``down_for`` seconds later
    (or never, if ``None``). Whether neighbours handle the crash with
    graceful restart is the *crashed router's* capability — see
    :attr:`repro.bgp.router.RouterConfig.graceful_restart`."""

    router: str
    at: float
    down_for: Optional[float] = None

    def __post_init__(self) -> None:
        _check_name(self.router, "RouterCrash.router")
        check_number("RouterCrash.at", self.at, ge=0)
        if self.down_for is not None:
            check_number("RouterCrash.down_for", self.down_for, gt=0)


@dataclass(frozen=True)
class SessionReset:
    """Bounce the BGP session between adjacent ``a`` and ``b`` at ``at``
    without touching the link (an administrative ``clear bgp``)."""

    a: str
    b: str
    at: float

    def __post_init__(self) -> None:
        _check_name(self.a, "SessionReset.a")
        _check_name(self.b, "SessionReset.b")
        check_number("SessionReset.at", self.at, ge=0)


@dataclass(frozen=True)
class LinkImpairment:
    """Make the ``a``–``b`` link lossy from ``start`` for ``duration``
    seconds (or the rest of the episode if ``None``): each message is
    independently dropped with probability ``loss``, duplicated with
    probability ``duplicate``, and delayed by an extra uniform
    ``[0, extra_jitter]`` seconds."""

    a: str
    b: str
    start: float
    duration: Optional[float] = None
    loss: float = 0.0
    duplicate: float = 0.0
    extra_jitter: float = 0.0

    def __post_init__(self) -> None:
        _check_name(self.a, "LinkImpairment.a")
        _check_name(self.b, "LinkImpairment.b")
        check_number("LinkImpairment.start", self.start, ge=0)
        if self.duration is not None:
            check_number("LinkImpairment.duration", self.duration, gt=0)
        check_number("LinkImpairment.loss", self.loss, ge=0, le=1)
        check_number("LinkImpairment.duplicate", self.duplicate, ge=0, le=1)
        check_number("LinkImpairment.extra_jitter", self.extra_jitter, ge=0)
        if self.loss == 0.0 and self.duplicate == 0.0 and self.extra_jitter == 0.0:
            raise ConfigurationError(
                "LinkImpairment must impair something: set loss, duplicate, "
                "or extra_jitter"
            )


@dataclass(frozen=True)
class FlapStorm:
    """A seeded burst of link flaps.

    Starting at ``start``, the storm performs ``flaps`` down/up cycles:
    each cycle picks one of ``links`` uniformly, waits a uniform
    ``[min_interval, max_interval]`` gap since the previous cycle, takes
    the link down, and brings it back ``down_time`` seconds later. All
    draws come from the dedicated stream ``fault:storm:<name>``.
    """

    name: str
    links: Tuple[Tuple[str, str], ...]
    start: float
    flaps: int
    min_interval: float
    max_interval: float
    down_time: float

    def __post_init__(self) -> None:
        _check_name(self.name, "FlapStorm.name")
        links = tuple(tuple(pair) for pair in self.links)
        for pair in links:
            if len(pair) != 2:
                raise ConfigurationError(
                    f"FlapStorm.links entries must be (a, b) pairs, got {pair!r}"
                )
            _check_name(pair[0], "FlapStorm link endpoint")
            _check_name(pair[1], "FlapStorm link endpoint")
        if not links:
            raise ConfigurationError("FlapStorm.links must not be empty")
        object.__setattr__(self, "links", links)
        check_number("FlapStorm.start", self.start, ge=0)
        if not isinstance(self.flaps, int) or self.flaps < 1:
            raise ConfigurationError(
                f"FlapStorm.flaps must be an int >= 1, got {self.flaps!r}"
            )
        check_number("FlapStorm.min_interval", self.min_interval, ge=0)
        check_number("FlapStorm.max_interval", self.max_interval, ge=self.min_interval)
        check_number("FlapStorm.down_time", self.down_time, gt=0)

    @property
    def stream_name(self) -> str:
        """The RNG stream this storm's draws come from."""
        return f"fault:storm:{self.name}"


@dataclass(frozen=True)
class FaultPlan:
    """A complete, validated fault schedule for one episode."""

    name: str = "faults"
    link_faults: Tuple[LinkFault, ...] = ()
    crashes: Tuple[RouterCrash, ...] = ()
    session_resets: Tuple[SessionReset, ...] = ()
    impairments: Tuple[LinkImpairment, ...] = ()
    storms: Tuple[FlapStorm, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name, "FaultPlan.name")
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "session_resets", tuple(self.session_resets))
        object.__setattr__(self, "impairments", tuple(self.impairments))
        object.__setattr__(self, "storms", tuple(self.storms))
        names = [storm.name for storm in self.storms]
        if len(names) != len(set(names)):
            raise ConfigurationError(
                "FlapStorm names must be unique within a plan (they name "
                f"RNG streams), got {sorted(names)}"
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.action_count == 0

    @property
    def action_count(self) -> int:
        """Number of declared faults (a storm counts once; its individual
        flaps are expanded at install time)."""
        return (
            len(self.link_faults)
            + len(self.crashes)
            + len(self.session_resets)
            + len(self.impairments)
            + len(self.storms)
        )

    def routers(self) -> Set[str]:
        """Every router name the plan references."""
        names: Set[str] = set()
        for crash in self.crashes:
            names.add(crash.router)
        for a, b in self.links():
            names.add(a)
            names.add(b)
        return names

    def links(self) -> Set[Tuple[str, str]]:
        """Every (unordered) link the plan references."""
        pairs: Set[Tuple[str, str]] = set()

        def add(a: str, b: str) -> None:
            pairs.add((a, b) if a <= b else (b, a))

        for fault in self.link_faults:
            add(fault.a, fault.b)
        for reset in self.session_resets:
            add(reset.a, reset.b)
        for impairment in self.impairments:
            add(impairment.a, impairment.b)
        for storm in self.storms:
            for a, b in storm.links:
                add(a, b)
        return pairs

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"name": self.name}
        for key in (
            "link_faults",
            "crashes",
            "session_resets",
            "impairments",
            "storms",
        ):
            entries = getattr(self, key)
            if entries:
                payload[key] = [asdict(entry) for entry in entries]
        return payload

    def dumps(self) -> str:
        """Canonical JSON document (sorted keys, 2-space indent)."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        known = {
            "name",
            "link_faults",
            "crashes",
            "session_resets",
            "impairments",
            "storms",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(f"unknown fault plan keys: {unknown}")

        def entries(key: str, factory: type) -> Tuple[object, ...]:
            raw = payload.get(key, [])
            if not isinstance(raw, list):
                raise ConfigurationError(f"fault plan {key!r} must be a list")
            built: List[object] = []
            for index, item in enumerate(raw):
                if not isinstance(item, dict):
                    raise ConfigurationError(
                        f"fault plan {key}[{index}] must be an object"
                    )
                if key == "storms" and isinstance(item.get("links"), list):
                    item = dict(item)
                    item["links"] = tuple(
                        tuple(pair) if isinstance(pair, list) else pair
                        for pair in item["links"]
                    )
                try:
                    built.append(factory(**item))
                except TypeError as exc:
                    raise ConfigurationError(
                        f"fault plan {key}[{index}] is malformed: {exc}"
                    ) from None
            return tuple(built)

        name = payload.get("name", "faults")
        return cls(
            name=name if isinstance(name, str) else "faults",
            link_faults=entries("link_faults", LinkFault),  # type: ignore[arg-type]
            crashes=entries("crashes", RouterCrash),  # type: ignore[arg-type]
            session_resets=entries("session_resets", SessionReset),  # type: ignore[arg-type]
            impairments=entries("impairments", LinkImpairment),  # type: ignore[arg-type]
            storms=entries("storms", FlapStorm),  # type: ignore[arg-type]
        )

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text, parse_constant=reject_non_finite_token)
        except ValueError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_json_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())


__all__ = [
    "FaultPlan",
    "FlapStorm",
    "LinkFault",
    "LinkImpairment",
    "RouterCrash",
    "SessionReset",
]
