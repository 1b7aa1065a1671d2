"""Outside-in span tracing for the benchmark's per-layer pass.

Nothing under ``src/`` knows about this file. :func:`tracing` swaps
timing shims in around public callables of the program (at class level,
or in the module that imported a function by name), and puts them back
in a ``finally``. Per-event callback spans come from a ``PhaseProbe``
installed through the public ``Engine.set_phase_probe`` and keyed by the
event's tag.

A span is (layer, id, parent id, start, end). Spans live on a stack: a
span's *self time* is its duration minus the time its direct children
cover, so the self times of all layers sum to the time spent under the
outermost spans. Totals per layer are exact; the raw span list is kept in
memory up to ``span_cap`` entries and written out by the caller when the
pass ends.

Every span costs host time that the untraced program does not pay. The
part spent between the span's two clock reads lands in the span's own
self time, the rest in its parent's. :func:`calibrate` measures both on
an empty wrapped function and :meth:`Recorder.layers` subtracts them
(``calls x inside`` from the layer, ``direct children x outside`` from
the parent), reporting the raw figure beside the corrected one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Event tag -> layer charged with the callback's self time. Events with
#: any other tag are charged to the engine loop that dispatched them.
EVENT_LAYERS = {
    "deliver": "net.link.deliver",
    "mrai": "bgp.mrai.flush",
    "reuse": "core.damping.reuse",
    "flap": "workload.scenarios.run",
}

#: Every span layer the traced pass reports, in outside-in order.
LAYERS = (
    "experiments.parallel.execute_sweep",
    "workload.scenarios.build",
    "workload.scenarios.warm_up",
    "workload.scenarios.run",
    "workload.scenarios.snapshot_capture",
    "workload.scenarios.snapshot_restore",
    "sim.engine.loop",
    "sim.engine.schedule",
    "sim.engine.cancel",
    "sim.timers",
    "net.link.send",
    "net.link.deliver",
    "bgp.router",
    "bgp.rib",
    "bgp.decision",
    "bgp.paths",
    "core.damping.record_update",
    "core.damping.is_suppressed",
    "core.damping.reuse",
    "core.penalty",
    "bgp.mrai",
    "bgp.mrai.flush",
    "metrics.collector",
    "metrics.digest",
)

_CHILD, _CURRENT, _NEXT, _KIDS, _KEEP = 0, 1, 2, 3, 4

_TOTALS = (
    "events",
    "received",
    "duplicates",
    "best_changes",
    "charges",
    "suppressions",
    "recharges",
    "reuses",
    "silent_reuses",
    "records",
)


class Recorder:
    """In-memory span store plus running totals per traced site.

    A *site* is one shimmed callable or one event tag (``Link.send``,
    ``event:deliver``); every site belongs to a layer, and layers are
    what the benchmark reports. Keeping the totals per site costs nothing
    extra and lets the trace file show what a layer is made of.
    """

    def __init__(self, span_cap: int = 20_000) -> None:
        self.sites: List[str] = []
        self.site_layer: List[str] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: Direct child spans seen under spans of each site.
        self.kids: List[int] = []
        #: The first ``span_cap`` spans as (site, id, parent id, start,
        #: end); later spans only feed the totals, at about a third less
        #: cost, so one long operation cannot drown in its own trace.
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.span_cap = span_cap
        #: Frame state shared by every shim: time covered by the current
        #: span's children, current span id, next span id, the current
        #: span's direct-child count, and whether spans are still kept.
        self.state: List[Any] = [0.0, -1, 0, 0, span_cap > 0]
        self.in_warm_up = False
        #: Scenarios built or restored under tracing and not yet run, by
        #: id: (scenario, events executed before, router-stat sums
        #: before). A scenario is retired the moment its episode ends:
        #: held until the operation is over, a sweep's 36 scenarios would
        #: make every garbage collection inside it slower.
        self.live: Dict[int, Tuple[Any, int, Dict[str, int]]] = {}
        #: Public counters of the retired scenarios, summed.
        self.totals: Dict[str, int] = dict.fromkeys(_TOTALS, 0)
        #: Plain counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = {"timer_rearms": 0, "snapshot_bytes": 0}
        self._run_scenario: Any = None
        self.probe = _EventProbe(self)

    def site(self, name: str, layer: str) -> int:
        self.sites.append(name)
        self.site_layer.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        self.kids.append(0)
        return len(self.sites) - 1

    def span(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span charged to ``layer``."""
        idx = self.site(getattr(fn, "__qualname__", repr(fn)), layer)
        state, self_s, calls, kids = self.state, self.self_s, self.calls, self.kids
        spans, cap, clock = self.spans, self.span_cap, time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            saved_child = state[_CHILD]
            saved_kids = state[_KIDS]
            state[_CHILD] = 0.0
            state[_KIDS] = 0
            if state[_KEEP]:
                parent = state[_CURRENT]
                seq = state[_NEXT]
                state[_NEXT] = seq + 1
                state[_CURRENT] = seq
            else:
                seq = -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[idx] += duration - state[_CHILD]
                calls[idx] += 1
                kids[idx] += state[_KIDS]
                state[_CHILD] = saved_child + duration
                state[_KIDS] = saved_kids + 1
                if seq >= 0:
                    state[_CURRENT] = parent
                    spans.append((idx, seq, parent, start, end))
                    if len(spans) >= cap:
                        state[_KEEP] = False

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def register_scenario(self, scenario: Any) -> None:
        """Attach the event probe and remember the counters' baselines."""
        scenario.engine.set_phase_probe(self.probe)
        self.live[id(scenario)] = (
            scenario,
            scenario.engine.events_executed,
            _router_sums(scenario),
        )

    def retire_scenario(self, key: int, collector: Any = None) -> None:
        """Read a finished scenario's public counters and let it go."""
        scenario, events_before, sums_before = self.live.pop(key)
        totals = self.totals
        totals["events"] += scenario.engine.events_executed - events_before
        for name, value in _router_sums(scenario).items():
            totals[name] += value - sums_before[name]
        for router in scenario.routers.values():
            damping = router.damping
            if damping is None:
                continue
            totals["suppressions"] += len(damping.suppressions)
            totals["recharges"] += damping.recharge_count()
            totals["reuses"] += len(damping.reuse_events)
            totals["silent_reuses"] += sum(
                1 for event in damping.reuse_events if not event.noisy
            )
            for peer, prefix in damping.entry_keys():
                totals["charges"] += len(damping.penalty_state(peer, prefix).history)
        if collector is not None:
            totals["records"] += (
                len(collector.updates)
                + len(collector.suppression_changes)
                + len(collector.drops)
            )

    def retire_all(self) -> None:
        """Retire what never ran an episode (a snapshot's source)."""
        for key in list(self.live):
            self.retire_scenario(key)

    def site_calls(self, name: str) -> int:
        """Total calls of every site called ``name``."""
        return sum(c for site, c in zip(self.sites, self.calls) if site == name)

    def site_report(self, inside_s: float, outside_s: float) -> List[Dict[str, Any]]:
        """Per-site totals: raw self time, overhead-corrected self time
        (never below zero) and call count. Shims are rebuilt for every
        traced operation, so a callable shows up once per operation;
        rows of the same site are merged."""
        merged: Dict[Tuple[str, str], List[float]] = {}
        for idx, name in enumerate(self.sites):
            row = merged.setdefault((self.site_layer[idx], name), [0.0, 0, 0])
            row[0] += self.self_s[idx]
            row[1] += self.calls[idx]
            row[2] += self.kids[idx]
        return [
            {
                "layer": layer,
                "site": name,
                "self_raw_s": raw,
                "self_s": max(raw - calls * inside_s - kids * outside_s, 0.0),
                "calls": calls,
            }
            for (layer, name), (raw, calls, kids) in merged.items()
        ]

    def layers(self, inside_s: float, outside_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer totals of :meth:`site_report`, every layer present."""
        report = {
            name: {"self_raw_s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYERS
        }
        for row in self.site_report(inside_s, outside_s):
            layer = report[row["layer"]]
            for key in ("self_raw_s", "self_s", "calls"):
                layer[key] += row[key]
        return report


class _EventProbe:
    """``PhaseProbe`` turning every executed event into a span whose
    site is picked from the event's tag when the callback returns.

    ``before`` and ``after`` are closures stored on the instance (the
    engine calls them once per event, so a bound-method call and
    attribute writes per event would be a measurable share of the
    overhead). The engine is not re-entrant, so event spans never nest
    in each other and one saved frame is enough.
    """

    def __init__(self, rec: Recorder) -> None:
        state, self_s, calls, kids = rec.state, rec.self_s, rec.calls, rec.kids
        spans, cap, clock = rec.spans, rec.span_cap, time.perf_counter
        site_of = {
            tag: rec.site(f"event:{tag}", layer) for tag, layer in EVENT_LAYERS.items()
        }
        other = rec.site("event:other", "sim.engine.loop")
        saved_child = start = 0.0
        saved_kids = 0
        parent = seq = -1

        def before() -> None:
            nonlocal saved_child, saved_kids, parent, seq, start
            saved_child = state[_CHILD]
            saved_kids = state[_KIDS]
            state[_CHILD] = 0.0
            state[_KIDS] = 0
            if state[_KEEP]:
                parent = state[_CURRENT]
                seq = state[_NEXT]
                state[_NEXT] = seq + 1
                state[_CURRENT] = seq
            else:
                seq = -1
            start = clock()

        def after(tag: Optional[str]) -> None:
            end = clock()
            idx = site_of.get(tag, other)  # type: ignore[arg-type]
            duration = end - start
            self_s[idx] += duration - state[_CHILD]
            calls[idx] += 1
            kids[idx] += state[_KIDS]
            state[_CHILD] = saved_child + duration
            state[_KIDS] = saved_kids + 1
            if seq >= 0:
                state[_CURRENT] = parent
                spans.append((idx, seq, parent, start, end))
                if len(spans) >= cap:
                    state[_KEEP] = False

        self.before = before
        self.after = after


def _router_sums(scenario: Any) -> Dict[str, int]:
    received = duplicates = changes = 0
    for router in scenario.routers.values():
        stats = router.stats
        received += stats.updates_received
        duplicates += stats.duplicates_ignored
        changes += stats.best_path_changes
    return {"received": received, "duplicates": duplicates, "best_changes": changes}


def calibrate(rounds: int = 100_000) -> Tuple[float, float]:
    """Host cost of one span on an empty function: ``(inside, outside)``
    seconds, i.e. what lands in the span itself and what in its parent."""
    recorder = Recorder(span_cap=0)

    def empty() -> None:
        return None

    wrapped = recorder.span("bench.calibration", empty)
    site = len(recorder.sites) - 1
    clock = time.perf_counter
    start = clock()
    for _ in range(rounds):
        empty()
    bare = clock() - start
    start = clock()
    for _ in range(rounds):
        wrapped()
    traced = clock() - start
    inside = recorder.self_s[site] / rounds
    total = max(traced - bare, 0.0) / rounds
    return inside, max(total - inside, 0.0)


# ----------------------------------------------------------------------
# shim installation
# ----------------------------------------------------------------------


def _shim_plan(rec: Recorder) -> List[Tuple[Any, str, Any]]:
    """(owner, attribute, replacement) for every callable that is traced."""
    import repro.bgp.attrs as attrs_module
    import repro.bgp.router as router_module
    import repro.experiments.base as base_module
    import repro.experiments.parallel as parallel_module
    import repro.experiments.scale as scale_module
    import repro.metrics.digest as digest_module
    import repro.workload.scenarios as scenarios_module
    from repro.bgp.mrai import MraiLimiter
    from repro.bgp.rib import AdjRibIn, LocRib
    from repro.bgp.router import BgpRouter
    from repro.core.damping import DampingManager
    from repro.core.penalty import PenaltyState
    from repro.net.link import Link
    from repro.net.network import Network
    from repro.sim.engine import Engine, ScheduledEvent
    from repro.sim.timers import Timer
    from repro.workload.scenarios import Scenario, WarmStateSnapshot

    span = rec.span
    counts = rec.counts
    plan: List[Tuple[Any, str, Any]] = []

    def plain(owner: Any, attribute: str, layer: str) -> None:
        plan.append((owner, attribute, span(layer, getattr(owner, attribute))))

    # -- workload.scenarios -------------------------------------------
    build = span("workload.scenarios.build", Scenario.__init__)

    def scenario_init(self: Any, *args: Any, **kwargs: Any) -> None:
        build(self, *args, **kwargs)
        rec.register_scenario(self)

    warm = span("workload.scenarios.warm_up", Scenario.warm_up)

    def scenario_warm_up(self: Any) -> float:
        # Scenario.warm_up removes its delivery hook by identity, so
        # hooks added while it runs must stay unwrapped.
        rec.in_warm_up = True
        try:
            return warm(self)
        finally:
            rec.in_warm_up = False

    run = span("workload.scenarios.run", Scenario.run)

    def scenario_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        rec._run_scenario = self
        try:
            result = run(self, *args, **kwargs)
        finally:
            rec._run_scenario = None
        rec.retire_scenario(id(self), result.collector)
        return result

    capture = span(
        "workload.scenarios.snapshot_capture", WarmStateSnapshot.capture.__func__
    )

    def snapshot_capture(cls: Any, config: Any) -> Any:
        snapshot = capture(cls, config)
        counts["snapshot_bytes"] += snapshot.size_bytes
        return snapshot

    from_scenario = WarmStateSnapshot.from_scenario.__func__

    def snapshot_from_scenario(cls: Any, scenario: Any) -> Any:
        # The probe must not travel inside the pickle: a snapshot taken
        # under tracing is byte-for-byte the untraced one.
        scenario.engine.set_phase_probe(None)
        try:
            return from_scenario(cls, scenario)
        finally:
            scenario.engine.set_phase_probe(rec.probe)

    restore = span("workload.scenarios.snapshot_restore", WarmStateSnapshot.restore)

    def snapshot_restore(self: Any) -> Any:
        scenario = restore(self)
        rec.register_scenario(scenario)
        return scenario

    plan += [
        (Scenario, "__init__", scenario_init),
        (Scenario, "warm_up", scenario_warm_up),
        (Scenario, "run", scenario_run),
        (WarmStateSnapshot, "capture", classmethod(snapshot_capture)),
        (WarmStateSnapshot, "from_scenario", classmethod(snapshot_from_scenario)),
        (WarmStateSnapshot, "restore", snapshot_restore),
    ]

    # -- experiments.parallel (imported by name into experiments.base) --
    sweep = span("experiments.parallel.execute_sweep", parallel_module.execute_sweep)
    plan += [
        (parallel_module, "execute_sweep", sweep),
        (base_module, "execute_sweep", sweep),
    ]

    # -- sim.engine / sim.timers --------------------------------------
    loop = span("sim.engine.loop", Engine.run_until_idle)

    def run_until_idle(self: Any, *args: Any, **kwargs: Any) -> int:
        scenario = rec._run_scenario
        if scenario is not None and scenario.engine is self:
            # Scenario.run has attached the collector and its own trace
            # closures by now; suppression observers sit in a public list.
            rec._run_scenario = None
            for router in scenario.routers.values():
                if router.damping is not None:
                    observers = router.damping.suppression_observers
                    observers[:] = [span("metrics.collector", o) for o in observers]
        return loop(self, *args, **kwargs)

    plan.append((Engine, "run_until_idle", run_until_idle))
    plain(Engine, "schedule_at", "sim.engine.schedule")
    plain(ScheduledEvent, "cancel", "sim.engine.cancel")

    plain(Timer, "start", "sim.timers")
    plain(Timer, "restart_if_idle", "sim.timers")
    reschedule = span("sim.timers", Timer.reschedule)

    def timer_reschedule(self: Any, delay: float) -> None:
        if self.is_pending:
            counts["timer_rearms"] += 1
        reschedule(self, delay)

    plan.append((Timer, "reschedule", timer_reschedule))
    plain(Timer, "cancel", "sim.timers")

    # -- net ------------------------------------------------------------
    plain(Link, "send", "net.link.send")
    plain(Network, "deliver", "net.link.deliver")
    add_hook = Network.add_delivery_hook

    def add_delivery_hook(self: Any, hook: Any) -> None:
        add_hook(self, hook if rec.in_warm_up else span("metrics.collector", hook))

    plan.append((Network, "add_delivery_hook", add_delivery_hook))

    # -- bgp --------------------------------------------------------------
    plain(BgpRouter, "process_update", "bgp.router")
    plain(AdjRibIn, "classify", "bgp.rib")
    plain(AdjRibIn, "apply", "bgp.rib")
    plain(LocRib, "set_route", "bgp.rib")
    # Both are imported by name, so they are patched where they are used.
    plain(router_module, "select_best", "bgp.decision")
    plain(attrs_module, "intern_path", "bgp.paths")
    plain(MraiLimiter, "may_send_now", "bgp.mrai")
    plain(MraiLimiter, "note_sent", "bgp.mrai")
    plain(MraiLimiter, "defer", "bgp.mrai")

    # -- core ---------------------------------------------------------------
    plain(DampingManager, "record_update", "core.damping.record_update")
    plain(DampingManager, "is_suppressed", "core.damping.is_suppressed")
    plain(PenaltyState, "charge", "core.penalty")
    plain(PenaltyState, "value_at", "core.penalty")

    # -- metrics ------------------------------------------------------------
    plain(scenarios_module, "summarize_convergence", "metrics.collector")
    digest = span("metrics.digest", digest_module.run_digest)
    plan += [
        (digest_module, "run_digest", digest),
        (scale_module, "run_digest", digest),
        (parallel_module, "run_digest", digest),
    ]
    return plan


#: Callables whose identity the untraced pass checks before it times
#: anything: (module, class or None, attribute).
_SENTINELS = (
    ("repro.sim.engine", "Engine", "schedule_at"),
    ("repro.net.link", "Link", "send"),
    ("repro.bgp.router", None, "select_best"),
    ("repro.workload.scenarios", "Scenario", "run"),
)


def shims_installed() -> List[str]:
    """Names of sentinel callables that are currently shimmed (the
    untraced pass and the smoke test require an empty list)."""
    import importlib

    found = []
    for module_name, owner_name, attribute in _SENTINELS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        target = getattr(owner, attribute)
        module = getattr(target, "__module__", "")
        if hasattr(target, "__wrapped__") or not module.startswith("repro."):
            found.append(f"{module_name}.{owner_name or ''}.{attribute}")
    return found


@contextmanager
def tracing(rec: Recorder) -> Iterator[Recorder]:
    """Install every shim for the duration of the block."""
    installed: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, replacement in _shim_plan(rec):
            # vars() keeps classmethod/function objects as they are, so
            # restoring puts back exactly what was there.
            installed.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, replacement)
        yield rec
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)
