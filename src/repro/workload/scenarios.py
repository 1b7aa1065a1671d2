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

Sweeps run all three steps per point: a fresh build and warm-up costs
~20 ms on the 100-node mesh, and the episode that follows runs faster
on freshly built objects than on unpickled ones. A warmed-up scenario
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
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.bgp.graceful_restart import GracefulRestartConfig
from repro.bgp.mrai import MraiConfig
from repro.bgp.origin import OriginRouter
from repro.bgp.policy import NoValleyPolicy, RoutingPolicy, ShortestPathPolicy
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.intended import IntendedBehaviorModel
from repro.core.params import DampingParams
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.metrics.convergence import ConvergenceSummary, summarize_convergence
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine, PhaseProbe
from repro.sim.events import TieDetector
from repro.sim.rng import RngRegistry
from repro.topology.model import Topology
from repro.workload.pulses import PulseSchedule

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

ORIGIN_NAME = "originAS"
DEFAULT_PREFIX = "p0"


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
    warmup_horizon: float = 5_000.0
    run_horizon: float = 100_000.0
    #: Opt-in runtime schedule-race detector: record same-instant event
    #: ties touching the same router (see ``docs/STATIC_ANALYSIS.md``).
    #: Detection is passive — results are bit-identical either way.
    detect_schedule_ties: bool = False
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
    #: direction (see docs/SCALING.md). Delivery times are unchanged but
    #: same-instant execution order can differ, so this is opt-in for
    #: large-graph scenarios; the paper's figures keep it off to
    #: preserve their committed digests.
    coalesce_delivery: bool = False

    def __post_init__(self) -> None:
        if self.rcn and self.selective:
            raise ConfigurationError("rcn and selective filters are mutually exclusive")
        if not (0.0 <= self.damping_fraction <= 1.0):
            raise ConfigurationError(
                f"damping_fraction must be in [0, 1], got {self.damping_fraction}"
            )
        if self.use_no_valley and self.topology.relationships is None:
            raise ConfigurationError(
                "no-valley policy requires a topology with relationships"
            )
        if self.isp is not None and self.isp not in self.topology.graph:
            raise ConfigurationError(f"isp {self.isp!r} is not in the topology")
        if self.damping_overrides:
            unknown = [
                name
                for name in self.damping_overrides
                if name not in self.topology.graph
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
                if name != ORIGIN_NAME and name not in self.topology.graph
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


class Scenario:
    """A built simulation, ready to warm up and run one episode.

    A scenario instance is single-use: build → warm_up → run. Sweeps
    construct a fresh scenario per data point (see
    :mod:`repro.experiments.base`).
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng = RngRegistry(config.seed)
        self.engine = Engine()
        #: The opt-in schedule-race detector (``detect_schedule_ties``).
        self.tie_detector: Optional[TieDetector] = (
            TieDetector(self.engine) if config.detect_schedule_ties else None
        )
        self.network = Network(
            self.engine, self.rng, coalesce_delivery=config.coalesce_delivery
        )
        self.routers: Dict[str, BgpRouter] = {}
        self.policy = self._build_policy()
        self.isp = self._choose_isp()
        self._build_routers()
        self.origin = self._build_origin()
        self.warmup_convergence: float = 0.0
        #: Set by :meth:`run` when the config carries a fault plan.
        self.fault_injector: Optional[FaultInjector] = None
        self._warmed_up = False
        self._ran = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_policy(self) -> RoutingPolicy:
        if not self.config.use_no_valley:
            return ShortestPathPolicy()
        relationships = self.config.topology.relationships
        assert relationships is not None  # validated by ScenarioConfig
        return NoValleyPolicy(relationships.relationship)

    def _choose_isp(self) -> str:
        if self.config.isp is not None:
            return self.config.isp
        chooser = self.rng.stream("scenario:isp")
        return chooser.choice(self.config.topology.nodes)

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
                attach_root_cause=True,
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
        if self.config.use_no_valley:
            relationships = self.config.topology.relationships
            assert relationships is not None
            if not relationships.has_relationship(self.isp, ORIGIN_NAME):
                relationships.set_provider(self.isp, ORIGIN_NAME)
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
        self.engine.run_until_idle(max_time=start + self.config.warmup_horizon)
        if self.engine.pending_count:
            raise SimulationError(
                f"warm-up did not converge within {self.config.warmup_horizon}s"
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
        if self.tie_detector is not None:
            # Warm-up ties are not part of the measured episode.
            self.tie_detector.clear()
        return self.warmup_convergence

    def run(
        self, schedule: PulseSchedule, tracer: Optional["Tracer"] = None
    ) -> FlapRunResult:
        """Drive one measured flapping episode and return its result.

        ``tracer`` optionally attaches a causal
        :class:`~repro.trace.tracer.Tracer` for the episode (warm-up is
        deliberately not traced — the measured episode starts clean). A
        tracer over a :class:`~repro.trace.sinks.NullSink` attaches
        nothing.
        """
        if not self._warmed_up:
            self.warm_up()
        if self._ran:
            raise SimulationError("scenario already ran its episode")
        self._ran = True

        collector = MetricsCollector()
        collector.attach(self.network, list(self.routers.values()))
        if self.tie_detector is not None:
            collector.schedule_ties = self.tie_detector.ties

        if tracer is not None:
            tracer.attach(
                self.engine,
                self.network,
                list(self.routers.values()) + [self.origin],
            )
            if not tracer.enabled:
                tracer = None

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
        for offset, status in schedule.events:
            self.engine.schedule_at(
                start + offset,
                self._make_flap_action(status, tracer),
                actor=ORIGIN_NAME,
                tag="flap",
            )
        self.engine.run_until_idle(max_time=start + self.config.run_horizon)
        if self.engine.pending_count:
            raise SimulationError(
                f"episode did not drain within {self.config.run_horizon}s "
                f"({self.engine.pending_count} events pending)"
            )

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

    The one place a measured episode is put together: sweep points,
    bespoke drivers and the ad-hoc CLI commands all come through here.
    ``audit_timers`` attaches the runtime timer audit for the scenario's
    whole life (warm-up included) and ``phase_probe`` brackets every
    engine callback; ``tracer`` covers the measured episode only. A
    timer-audit violation raises ``SimulationError``; with
    ``check_invariants`` so does any violation
    :func:`repro.analysis.invariants.check_converged_invariants` finds
    in the drained scenario.
    """
    scenario = Scenario(config)
    audit = scenario.engine.enable_timer_audit() if audit_timers else None
    if phase_probe is not None:
        scenario.engine.set_phase_probe(phase_probe)
    scenario.warm_up()
    result = scenario.run(schedule, tracer=tracer)
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

        # Every PulseSchedule ends with the origin up, so the converged
        # network must be fully reachable and fully drained.
        check_converged_invariants(scenario).raise_on_violation()
    return scenario, result


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
    does not use them (it warms a fresh scenario per point); they are a
    checkpoint primitive and the restore-invariance test oracle.
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
        config.warmup_horizon,
        config.run_horizon,
        config.detect_schedule_ties,
        config.faults,
        config.graceful_restart,
        config.charge_on_session_reset,
        config.coalesce_delivery,
    )
