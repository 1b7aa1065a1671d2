"""The standard experiment scenario (paper Section 5.1).

A :class:`Scenario` packages the paper's methodology:

1. **Build** — instantiate the topology as a network of
   :class:`~repro.bgp.router.BgpRouter` nodes, pick a random ``ispAS``,
   and attach the flapping ``originAS`` to it.
2. **Warm up** — the origin announces its prefix; run until every node
   has learned a stable route; then wipe all damping state so the
   measured episode starts clean. The warm-up's convergence time doubles
   as the measured ``t_up`` for the intended-behaviour model.
3. **Run** — attach a fresh :class:`~repro.metrics.collector.MetricsCollector`,
   drive a :class:`~repro.workload.pulses.PulseSchedule` through the
   origin, and run the event queue dry. Convergence time and message
   count are measured exactly as the paper defines them.

The run has two public halves, :meth:`Scenario.start_episode` and
:meth:`Scenario.finish_episode`, with an :class:`Episode` handle in
between. Sweeps use the gap: a regular ``n``-pulse train is the first
part of every longer one, so the sweep executor runs the longest train
once and branches each shorter one off it just before its first extra
flap (:meth:`Episode.branch_point`, :meth:`Episode.truncate`); see
:mod:`repro.experiments.parallel`. Branching never pickles: the
episode that follows a restore runs slower on unpickled objects than
on freshly built ones. A warmed-up scenario
can still be checkpointed as a :class:`WarmStateSnapshot` — a pickle of
the converged network, damping, RIB, and RNG state. An episode run on a
restored checkpoint is digest-identical to one run after a fresh
warm-up (the pickle preserves every ``random.Random`` stream state, the
engine's clock and sequence counter, and all protocol state exactly),
which makes restore a metamorphic oracle for the simulator's state.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.bgp.graceful_restart import GracefulRestartConfig
from repro.bgp.mrai import MraiConfig
from repro.bgp.origin import ORIGIN_NAME, OriginRouter
from repro.bgp.policy import (
    NoValleyPolicy,
    Relationship,
    RelationshipFunction,
    RoutingPolicy,
    ShortestPathPolicy,
)
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.intended import IntendedBehaviorModel
from repro.core.params import DampingParams
from repro.errors import ConfigurationError, SimulationError, check_number
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.metrics.convergence import ConvergenceSummary, summarize_convergence
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine, PhaseProbe, ScheduledEvent
from repro.sim.rng import RngRegistry
from repro.topology.internet import pick_isp
from repro.topology.model import Topology
from repro.topology.relationships import RelationshipMap
from repro.workload.pulses import PulseSchedule

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

DEFAULT_PREFIX = "p0"
#: Simulated seconds the warm-up and the measured episode may take to
#: drain; an episode still busy past its horizon is a SimulationError.
WARMUP_HORIZON = 5_000.0
RUN_HORIZON = 100_000.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one simulation run (minus the pulse count)."""

    topology: Topology
    damping: Optional[DampingParams] = None
    rcn: bool = False
    selective: bool = False
    use_no_valley: bool = False
    mrai: MraiConfig = field(default_factory=MraiConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    seed: int = 0
    isp: Optional[str] = None
    #: Fraction of topology routers that run damping (partial deployment
    #: ablation); 1.0 = full deployment as in the paper's main results.
    damping_fraction: float = 1.0
    #: Per-router damping-parameter overrides (heterogeneous deployments,
    #: paper Section 7: "different routers have inconsistent damping
    #: parameter settings"). Routers not listed use ``damping``.
    damping_overrides: Optional[Mapping[str, DampingParams]] = None
    prefix: str = DEFAULT_PREFIX
    #: Optional fault schedule injected into the measured episode
    #: (crashes, link failures, lossy links — see ``docs/ROBUSTNESS.md``).
    #: A non-empty plan also arms the engine watchdog.
    faults: Optional["FaultPlan"] = None
    #: Graceful-restart capability granted to every topology router:
    #: ``None`` means crashes are handled as hard session resets;
    #: otherwise neighbours retain a crashed peer's routes as stale
    #: under this restart-timer configuration (RFC 4724 style).
    graceful_restart: Optional[GracefulRestartConfig] = None
    #: Whether a session loss's implicit withdrawals charge the damping
    #: penalty (RFC 2439 leaves this to the implementation; the fault
    #: experiments turn it on to measure crash-induced charging).
    charge_on_session_reset: bool = False
    #: Batch pending link deliveries behind one engine event per link
    #: direction (see docs/SCALING.md §2). Delivery times are unchanged
    #: but same-instant event order can differ. Scale episodes turn it
    #: on; the paper's figures keep it off, which the benchmark's
    #: one-message-per-delivery-event pin on the mesh workloads encodes.
    coalesce_delivery: bool = False

    def __post_init__(self) -> None:
        if self.rcn and self.selective:
            raise ConfigurationError("rcn and selective filters are mutually exclusive")
        check_number("ScenarioConfig.damping_fraction", self.damping_fraction, ge=0, le=1)
        if self.use_no_valley and self.topology.relationships is None:
            raise ConfigurationError(
                "no-valley policy requires a topology with relationships"
            )
        if self.isp is not None and self.isp not in self.topology.adjacency:
            raise ConfigurationError(f"isp {self.isp!r} is not in the topology")
        if self.damping_overrides:
            unknown = [
                name
                for name in self.damping_overrides
                if name not in self.topology.adjacency
            ]
            if unknown:
                raise ConfigurationError(
                    f"damping_overrides for unknown routers: {unknown[:5]}"
                )
            if self.damping is None:
                raise ConfigurationError(
                    "damping_overrides require a base damping configuration"
                )
        if self.faults is not None:
            unknown_routers = sorted(
                name
                for name in self.faults.routers()
                if name != ORIGIN_NAME and name not in self.topology.adjacency
            )
            if unknown_routers:
                raise ConfigurationError(
                    f"fault plan references routers not in the topology: "
                    f"{unknown_routers[:5]}"
                )

    def label(self) -> str:
        parts = [self.topology.name]
        parts.append("damping" if self.damping is not None else "no-damping")
        if self.rcn:
            parts.append("rcn")
        if self.selective:
            parts.append("selective")
        if self.use_no_valley:
            parts.append("no-valley")
        return "/".join(parts)


@dataclass
class FlapRunResult:
    """Outcome of one measured flapping episode."""

    config: ScenarioConfig
    schedule: PulseSchedule
    collector: MetricsCollector
    summary: ConvergenceSummary
    #: Absolute time of the origin's final announcement.
    final_announcement_time: Optional[float]
    #: Absolute flap event times (for phase classification).
    flap_times: List[float]
    #: Measured warm-up convergence time (the empirical ``t_up``).
    warmup_convergence: float
    #: Engine clock when the run drained.
    end_time: float

    @property
    def convergence_time(self) -> float:
        return self.summary.convergence_time

    @property
    def message_count(self) -> int:
        return self.summary.message_count


class Episode:
    """A measured episode between :meth:`Scenario.start_episode` and
    :meth:`Scenario.finish_episode`: its schedule, its start instant and
    the handles of its scheduled flap events, in schedule order."""

    __slots__ = ("schedule", "start", "flaps")

    def __init__(
        self, schedule: PulseSchedule, start: float, flaps: List[ScheduledEvent]
    ) -> None:
        self.schedule = schedule
        self.start = start
        self.flaps = flaps

    def branch_point(self, prefix: PulseSchedule) -> float:
        """The instant before which this episode and one driven by
        ``prefix`` fire the same events: the first flap ``prefix`` lacks,
        or the run horizon if that comes first."""
        self._check_prefix(prefix)
        horizon = self.start + RUN_HORIZON
        if len(prefix.events) == len(self.flaps):
            return horizon
        return min(self.flaps[len(prefix.events)].time, horizon)

    def truncate(self, prefix: PulseSchedule) -> None:
        """Cancel every flap past ``prefix``, which becomes the schedule.

        While nothing at or after :meth:`branch_point` has fired, the
        episode then runs exactly as one started with ``prefix``: the
        flaps it shares were scheduled the same way, and every random
        draw comes from a per-name stream the cancelled flaps never touch.
        """
        self._check_prefix(prefix)
        for event in self.flaps[len(prefix.events):]:
            event.cancel()
        del self.flaps[len(prefix.events):]
        self.schedule = prefix

    def _check_prefix(self, prefix: PulseSchedule) -> None:
        if prefix.events != self.schedule.events[: len(prefix.events)]:
            raise ConfigurationError(
                f"a {prefix.pulse_count}-pulse schedule is not a prefix of "
                f"this episode's {self.schedule.pulse_count}-pulse schedule"
            )


class Scenario:
    """A built simulation, ready to warm up and run one episode.

    A scenario instance is single-use: build → warm_up → run. A sweep
    builds one per process and branches its shorter points off the
    longest episode (see :mod:`repro.experiments.parallel`).
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng = RngRegistry(config.seed)
        self.engine = Engine()
        self.network = Network(
            self.engine, self.rng, coalesce_delivery=config.coalesce_delivery
        )
        self.routers: Dict[str, BgpRouter] = {}
        self.isp = self._choose_isp()
        #: Each router's relationship with each neighbour, the origin's
        #: link to the ISP included; ``None`` under shortest-path routing.
        self.relationship = self._build_relationship()
        self.policy: RoutingPolicy = (
            ShortestPathPolicy()
            if self.relationship is None
            else NoValleyPolicy(self.relationship)
        )
        self._build_routers()
        self.origin = self._build_origin()
        self.warmup_convergence: float = 0.0
        #: The measured episode's collector, set by :meth:`run`.
        self.collector: Optional[MetricsCollector] = None
        #: Set by :meth:`run` when the config carries a fault plan.
        self.fault_injector: Optional[FaultInjector] = None
        self._warmed_up = False
        self._ran = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_relationship(self) -> Optional[RelationshipFunction]:
        if not self.config.use_no_valley:
            return None
        relationships = self.config.topology.relationships
        assert relationships is not None  # validated by ScenarioConfig
        # The topology is shared and frozen: the origin's edge is answered
        # here rather than written into its map.
        return partial(_origin_is_isp_customer, relationships, self.isp)

    def _choose_isp(self) -> str:
        if self.config.isp is not None:
            return self.config.isp
        return pick_isp(self.config.topology, self.rng.stream("scenario:isp"))

    def _damping_nodes(self) -> set:
        nodes = self.config.topology.nodes
        if self.config.damping is None:
            return set()
        if self.config.damping_fraction >= 1.0:
            return set(nodes)
        count = int(round(len(nodes) * self.config.damping_fraction))
        chooser = self.rng.stream("scenario:deployment")
        # The ISP always damps in partial deployments — it is the router
        # whose damping the design intends to do the isolation.
        chosen = set(chooser.sample(nodes, count)) if count else set()
        chosen.add(self.isp)
        return chosen

    def _build_routers(self) -> None:
        damping_nodes = self._damping_nodes()
        overrides = self.config.damping_overrides or {}
        for name in self.config.topology.nodes:
            node_damping: Optional[DampingParams] = None
            if name in damping_nodes:
                node_damping = overrides.get(name, self.config.damping)
            router_config = RouterConfig(
                damping=node_damping,
                rcn_enabled=self.config.rcn and name in damping_nodes,
                selective_enabled=self.config.selective and name in damping_nodes,
                mrai=self.config.mrai,
                graceful_restart=self.config.graceful_restart,
                charge_on_session_reset=self.config.charge_on_session_reset,
            )
            router = BgpRouter(
                name, self.engine, self.rng, policy=self.policy, config=router_config
            )
            self.routers[name] = router
            self.network.add_node(router)
        for a, b in self.config.topology.edges:
            self.network.add_link(a, b, self.config.link)

    def _build_origin(self) -> OriginRouter:
        origin = OriginRouter(
            ORIGIN_NAME,
            self.engine,
            self.rng,
            prefix=self.config.prefix,
            isp=self.isp,
        )
        self.network.add_node(origin)
        self.network.add_link(ORIGIN_NAME, self.isp, self.config.link)
        return origin

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def warm_up(self) -> float:
        """Announce the prefix and run until every node has a route.

        Returns the warm-up convergence time (last update delivery minus
        the announcement time) and resets all damping state.
        """
        if self._warmed_up:
            raise SimulationError("scenario already warmed up")
        self._warmed_up = True
        start = self.engine.now
        last_delivery = [start]

        def note_delivery(message) -> None:  # noqa: ANN001 - hook signature
            last_delivery[0] = message.delivered_at

        self.network.add_delivery_hook(note_delivery)
        self.origin.bring_up()
        self.engine.run_until_idle(max_time=start + WARMUP_HORIZON)
        if self.engine.pending_count:
            raise SimulationError(
                f"warm-up did not converge within {WARMUP_HORIZON}s"
            )
        # Remove the temporary hook so the measured phase doesn't pay for it.
        self.network._delivery_hooks.remove(note_delivery)
        missing = [
            name
            for name, router in self.routers.items()
            if not router.has_route(self.config.prefix)
        ]
        if missing:
            raise SimulationError(
                f"warm-up left {len(missing)} routers without a route "
                f"(e.g. {missing[:5]})"
            )
        self.warmup_convergence = last_delivery[0] - start
        for router in self.routers.values():
            router.reset_damping()
        return self.warmup_convergence

    def run(
        self, schedule: PulseSchedule, tracer: Optional["Tracer"] = None
    ) -> FlapRunResult:
        """Drive one measured flapping episode and return its result.

        ``tracer`` optionally attaches a causal
        :class:`~repro.trace.tracer.Tracer` for the episode (warm-up is
        deliberately not traced — the measured episode starts clean);
        ``None`` runs untraced. The two halves, :meth:`start_episode` and
        :meth:`finish_episode`, are public so a sweep can pause between
        them and branch shorter pulse trains off this one.
        """
        return self.finish_episode(self.start_episode(schedule, tracer))

    def start_episode(
        self, schedule: PulseSchedule, tracer: Optional["Tracer"] = None
    ) -> Episode:
        """Attach the collector (and ``tracer``), install the fault plan
        and schedule every flap of ``schedule``; nothing fires yet."""
        if not self._warmed_up:
            self.warm_up()
        if self._ran:
            raise SimulationError("scenario already ran its episode")
        self._ran = True

        collector = self.collector = MetricsCollector()
        collector.attach(self.network, list(self.routers.values()))

        if tracer is not None:
            tracer.attach(
                self.engine,
                self.network,
                list(self.routers.values()) + [self.origin],
            )

        start = self.engine.now
        if self.config.faults is not None and not self.config.faults.is_empty:
            # Fault episodes can wedge (retractions chasing re-announcements
            # at one instant), so arm the watchdog before injecting.
            self.engine.enable_watchdog()
            self.fault_injector = FaultInjector(
                self.config.faults,
                self.network,
                self.rng,
                tracer=tracer,
            )
            self.fault_injector.install(start)
        # Flaps are scheduled ahead of every protocol event, so they win
        # every same-instant tie whatever the schedule's length: that is
        # what makes a shorter train a prefix of a longer one.
        flaps = [
            self.engine.schedule_at(
                start + offset,
                self._make_flap_action(status, tracer),
                actor=ORIGIN_NAME,
                tag="flap",
            )
            for offset, status in schedule.events
        ]
        return Episode(schedule, start, flaps)

    def finish_episode(self, episode: Episode) -> FlapRunResult:
        """Drain the episode to its horizon and reduce it to a result."""
        start = episode.start
        schedule = episode.schedule
        self.engine.run_until_idle(max_time=start + RUN_HORIZON)
        if self.engine.pending_count:
            raise SimulationError(
                f"episode did not drain within {RUN_HORIZON}s "
                f"({self.engine.pending_count} events pending)"
            )

        collector = self.collector
        assert collector is not None  # attached by start_episode
        final_announcement: Optional[float]
        if schedule.events:
            final_announcement = start + schedule.final_announcement_offset
        else:
            final_announcement = None
        summary = summarize_convergence(
            collector, schedule.pulse_count, final_announcement
        )
        return FlapRunResult(
            config=self.config,
            schedule=schedule,
            collector=collector,
            summary=summary,
            final_announcement_time=final_announcement,
            flap_times=[start + offset for offset, _ in schedule.events],
            warmup_convergence=self.warmup_convergence,
            end_time=self.engine.now,
        )

    def _make_flap_action(self, status: str, tracer: Optional["Tracer"] = None):
        def action() -> None:
            if tracer is not None:
                # Flaps are the roots of the causal DAG: no cause, and
                # everything the origin emits next descends from them.
                flap_rid = tracer.emit(
                    "flap", self.engine.now, node=ORIGIN_NAME, status=status
                )
                tracer.set_context(flap_rid)
            if status == "down":
                self.origin.take_down()
            else:
                self.origin.bring_up()

        return action

    # ------------------------------------------------------------------
    # helpers for figure drivers
    # ------------------------------------------------------------------

    def intended_model(self, flap_interval: float = 60.0) -> IntendedBehaviorModel:
        """Section 3 model parameterised with this scenario's measured
        ``t_up`` (requires a completed warm-up and damping enabled)."""
        if self.config.damping is None:
            raise ConfigurationError("intended model requires damping parameters")
        return IntendedBehaviorModel(
            self.config.damping,
            flap_interval=flap_interval,
            tup=self.warmup_convergence,
        )


def _origin_is_isp_customer(
    relationships: RelationshipMap, isp: str, router: str, neighbor: str
) -> Relationship:
    """``relationships.relationship`` plus the ISP's view of the origin:
    its customer. (Module-level under ``partial`` so a warm-state
    snapshot can pickle it; the origin itself never consults a policy.)"""
    if router == isp and neighbor == ORIGIN_NAME:
        return Relationship.CUSTOMER
    return relationships.relationship(router, neighbor)


def run_scenario(
    config: ScenarioConfig,
    schedule: PulseSchedule,
    *,
    check_invariants: bool = False,
    audit_timers: bool = False,
    tracer: Optional["Tracer"] = None,
    phase_probe: Optional[PhaseProbe] = None,
) -> Tuple[Scenario, FlapRunResult]:
    """Build a fresh scenario, warm it up and run one measured episode.

    Bespoke drivers and the ad-hoc CLI commands come through here.
    Sweep trunks and branches use its pieces instead
    (:func:`warmed_scenario`, :meth:`Scenario.start_episode` /
    :meth:`Scenario.finish_episode`, :func:`verify_episode`); only
    replayed sweep points call it whole. ``audit_timers`` attaches the runtime timer audit for the scenario's
    whole life (warm-up included) and ``phase_probe`` brackets every
    engine callback; ``tracer`` covers the measured episode only. A
    timer-audit violation raises ``SimulationError``; with
    ``check_invariants`` so does a drained scenario off its solved stable
    state (:func:`repro.analysis.invariants.check_converged_invariants`).
    """
    scenario = warmed_scenario(
        config, audit_timers=audit_timers, phase_probe=phase_probe
    )
    result = scenario.run(schedule, tracer=tracer)
    verify_episode(scenario, check_invariants=check_invariants)
    return scenario, result


def warmed_scenario(
    config: ScenarioConfig,
    *,
    audit_timers: bool = False,
    phase_probe: Optional[PhaseProbe] = None,
) -> Scenario:
    """Build a fresh scenario and warm it up, with the timer audit and
    the phase probe (when asked for) attached before anything fires."""
    scenario = Scenario(config)
    if audit_timers:
        scenario.engine.enable_timer_audit()
    if phase_probe is not None:
        scenario.engine.set_phase_probe(phase_probe)
    scenario.warm_up()
    return scenario


def verify_episode(scenario: Scenario, *, check_invariants: bool = False) -> None:
    """Hold a drained scenario to its checks: the timer audit, when one
    is attached, and with ``check_invariants`` the converged-state
    oracle. Either failing raises ``SimulationError``."""
    audit = scenario.engine.timer_audit
    if audit is not None:
        violations = audit.verify()
        if violations:
            details = "; ".join(
                f"{v.kind} @ {v.time:.1f}s timer {v.timer}" for v in violations[:5]
            )
            raise SimulationError(
                f"timer audit found {len(violations)} violation(s): {details}"
            )
    if check_invariants:
        # Imported lazily: analysis.invariants imports this module.
        from repro.analysis.invariants import check_converged_invariants

        check_converged_invariants(scenario).raise_on_violation()


def run_episode(
    config: ScenarioConfig, pulses: int, flap_interval: float = 60.0
) -> FlapRunResult:
    """Convenience: one regular-pulse episode on a fresh scenario."""
    return run_scenario(config, PulseSchedule.regular(pulses, flap_interval))[1]


# ----------------------------------------------------------------------
# warm-state snapshots
# ----------------------------------------------------------------------


class WarmStateSnapshot:
    """A warmed-up :class:`Scenario` frozen as bytes.

    The snapshot is taken after :meth:`Scenario.warm_up` and before
    :meth:`Scenario.run` — the one point in a scenario's life where no
    metrics hooks, tracer wiring, or suppression observers are attached,
    so the whole object graph (engine, network, routers, damping
    managers, RNG streams) pickles cleanly. Each :meth:`restore` yields
    an independent scenario whose episode is **digest-identical** to one
    run on a freshly warmed scenario: pickling preserves the
    ``random.Random`` stream states, the engine's clock and sequence
    counter, and every RIB/penalty entry exactly, and restored copies
    share no mutable state with each other.

    Snapshots are plain picklable values themselves. The sweep executor
    does not use them (it forks branches off a live trunk instead); they
    are a checkpoint primitive and the restore-invariance test oracle.
    """

    __slots__ = ("config", "blob", "warmup_convergence", "_digest")

    def __init__(
        self, config: ScenarioConfig, blob: bytes, warmup_convergence: float
    ) -> None:
        self.config = config
        self.blob = blob
        self.warmup_convergence = warmup_convergence
        self._digest: Optional[str] = None

    def __getstate__(self) -> Tuple[ScenarioConfig, bytes, float]:
        return (self.config, self.blob, self.warmup_convergence)

    def __setstate__(self, state: Tuple[ScenarioConfig, bytes, float]) -> None:
        self.config, self.blob, self.warmup_convergence = state
        self._digest = None

    @property
    def size_bytes(self) -> int:
        """Size of the pickled scenario state."""
        return len(self.blob)

    @property
    def digest(self) -> str:
        """Content address of the blob (SHA-256 hex)."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.blob).hexdigest()
        return self._digest

    @classmethod
    def capture(cls, config: ScenarioConfig) -> "WarmStateSnapshot":
        """Build a scenario, warm it up, and freeze the converged state."""
        scenario = Scenario(config)
        scenario.warm_up()
        return cls.from_scenario(scenario)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "WarmStateSnapshot":
        """Freeze an already-warmed scenario (which stays usable)."""
        if not scenario._warmed_up:
            raise SimulationError("snapshot requires a warmed-up scenario")
        if scenario._ran:
            raise SimulationError(
                "cannot snapshot a scenario that already ran its episode"
            )
        blob = pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(scenario.config, blob, scenario.warmup_convergence)

    def restore(self) -> Scenario:
        """Materialise an independent warmed-up scenario, ready to run."""
        scenario: Scenario = pickle.loads(self.blob)
        return scenario


class WarmStateCache:
    """LRU cache of :class:`WarmStateSnapshot`, one per scenario config.

    Sweeps warm up each distinct :class:`ScenarioConfig` once and restore
    per point. Entries hold a strong reference to their config, keeping
    the topology object (part of the cache key by identity) alive for as
    long as the entry exists.

    ``hits``/``misses`` count lookups served from the cache versus ones
    that paid a warm-up capture — the observable behind the multi-sweep
    reuse guarantee (the second sweep over a config must be all hits).
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, WarmStateSnapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, config: ScenarioConfig) -> WarmStateSnapshot:
        """Return the snapshot for ``config``, capturing it on first use."""
        key = _config_cache_key(config)
        snapshot = self._entries.get(key)
        if snapshot is None:
            self.misses += 1
            snapshot = WarmStateSnapshot.capture(config)
            self._entries[key] = snapshot
            if len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return snapshot

    def restore(self, config: ScenarioConfig) -> Scenario:
        """An independent scenario from the cached snapshot for ``config``.

        A snapshot that fails to restore (a corrupted blob, or state
        pickled by an incompatible build in a long-lived process) is
        evicted and recaptured once — healing beats poisoning every
        later point of the sweep with the same broken bytes. A snapshot
        that fails even freshly recaptured is a real bug and propagates.
        """
        snapshot = self.get(config)
        try:
            return snapshot.restore()
        except Exception:
            self.invalidate(config)
            return self.get(config).restore()

    def invalidate(self, config: ScenarioConfig) -> bool:
        """Drop the entry for ``config``; True when one existed."""
        return self._entries.pop(_config_cache_key(config), None) is not None

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def _config_cache_key(config: ScenarioConfig) -> Hashable:
    """Value-equality key for every field of ``ScenarioConfig``.

    The topology has no value hash; its ``id`` is used instead, which is
    stable while a cache entry pins the config (and thus the topology)
    alive — and the experiment layer caches topologies per name anyway.
    """
    overrides = (
        tuple(sorted(config.damping_overrides.items()))
        if config.damping_overrides
        else None
    )
    return (
        id(config.topology),
        config.topology.name,
        config.damping,
        config.rcn,
        config.selective,
        config.use_no_valley,
        config.mrai,
        config.link,
        config.seed,
        config.isp,
        config.damping_fraction,
        overrides,
        config.prefix,
        config.faults,
        config.graceful_restart,
        config.charge_on_session_reset,
        config.coalesce_delivery,
    )
