"""Shared experiment machinery: standard configurations, pulse-count
sweeps, and the result container the benchmark harness renders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.params import CISCO_DEFAULTS, DampingParams
from repro.errors import ExperimentError
from repro.experiments.parallel import execute_sweep
from repro.metrics.report import render_table
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.topology.model import Topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import (
    FlapRunResult,
    Scenario,
    ScenarioConfig,
    WarmStateCache,
)

#: The paper sweeps 0..10 pulses on its figures' x-axes.
DEFAULT_PULSE_COUNTS = tuple(range(0, 11))

#: The reduced sweep used by ``--smoke`` runs (CI wiring checks): enough
#: points to exercise no-flap, single-flap, and suppression onset, small
#: enough to finish in seconds.
SMOKE_PULSE_COUNTS = (0, 1, 2, 3)

#: Seed used by the standard experiments (any fixed value reproduces).
DEFAULT_SEED = 42

#: When True, experiment drivers sweep :data:`SMOKE_PULSE_COUNTS`
#: instead of the full 0..10 — toggled by the CLI's ``--smoke`` flag; a
#: module-level switch because experiment drivers take no arguments by
#: contract (same pattern as ``_CHECK_INVARIANTS`` below).
_SMOKE_MODE = False


def set_smoke_mode(enabled: bool) -> None:
    """Enable/disable the reduced-pulse-count smoke sweep."""
    global _SMOKE_MODE
    _SMOKE_MODE = enabled


def smoke_mode_enabled() -> bool:
    return _SMOKE_MODE


def default_pulse_counts() -> List[int]:
    if _SMOKE_MODE:
        return list(SMOKE_PULSE_COUNTS)
    return list(DEFAULT_PULSE_COUNTS)


# ----------------------------------------------------------------------
# standard configurations (paper Section 5.1)
# ----------------------------------------------------------------------

_TOPOLOGY_CACHE: Dict[str, Topology] = {}


def _cached(name: str, build: Callable[[], Topology]) -> Topology:
    if name not in _TOPOLOGY_CACHE:
        _TOPOLOGY_CACHE[name] = build()
    return _TOPOLOGY_CACHE[name]


def mesh100_config(
    damping: Optional[DampingParams] = CISCO_DEFAULTS,
    rcn: bool = False,
    selective: bool = False,
    seed: int = DEFAULT_SEED,
    damping_fraction: float = 1.0,
) -> ScenarioConfig:
    """The paper's main setup: 100-node mesh (10×10 torus), Cisco
    defaults, damping at all nodes."""
    return ScenarioConfig(
        topology=_cached("mesh100", lambda: mesh_topology(10, 10)),
        damping=damping,
        rcn=rcn,
        selective=selective,
        seed=seed,
        damping_fraction=damping_fraction,
    )


def internet100_config(
    damping: Optional[DampingParams] = CISCO_DEFAULTS,
    rcn: bool = False,
    seed: int = DEFAULT_SEED,
) -> ScenarioConfig:
    """100-node Internet-derived topology (long-tailed degrees)."""
    return ScenarioConfig(
        topology=_cached("internet100", lambda: internet_topology(100, seed=7)),
        damping=damping,
        rcn=rcn,
        seed=seed,
    )


def internet208_config(
    damping: Optional[DampingParams] = CISCO_DEFAULTS,
    use_no_valley: bool = False,
    seed: int = DEFAULT_SEED,
) -> ScenarioConfig:
    """208-node Internet-derived topology with relationships (Figure 15)."""
    return ScenarioConfig(
        topology=_cached(
            "internet208",
            lambda: internet_topology(208, seed=7, with_relationships=True),
        ),
        damping=damping,
        use_no_valley=use_no_valley,
        seed=seed,
    )


def small_mesh_config(
    damping: Optional[DampingParams] = CISCO_DEFAULTS,
    rcn: bool = False,
    seed: int = DEFAULT_SEED,
) -> ScenarioConfig:
    """A 5×5 mesh for fast tests and the quickstart example."""
    return ScenarioConfig(
        topology=_cached("mesh25", lambda: mesh_topology(5, 5)),
        damping=damping,
        rcn=rcn,
        seed=seed,
    )


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One (pulse count → metrics) data point of a figure series."""

    pulses: int
    convergence_time: float
    message_count: int
    suppressions: int
    peak_damped_links: int
    secondary_charges: int
    warmup_convergence: float
    #: SHA-256 digest of the episode's observable event stream (see
    #: :mod:`repro.metrics.digest`); the determinism oracle the parallel
    #: executor is held to.
    digest: Optional[str] = None


@dataclass
class SweepSeries:
    """One labelled series of a figure (e.g. "Full Damping (mesh)")."""

    label: str
    points: List[SweepPoint] = field(default_factory=list)

    def convergence(self) -> List[tuple]:
        return [(p.pulses, p.convergence_time) for p in self.points]

    def messages(self) -> List[tuple]:
        return [(p.pulses, p.message_count) for p in self.points]

    def point(self, pulses: int) -> SweepPoint:
        for p in self.points:
            if p.pulses == pulses:
                return p
        raise ExperimentError(f"series {self.label!r} has no point for n={pulses}")

    @property
    def mean_warmup(self) -> float:
        if not self.points:
            return 0.0
        return sum(p.warmup_convergence for p in self.points) / len(self.points)


#: When True, every :func:`run_point` episode is followed by a pass of
#: the converged-state invariant oracle. Toggled by the CLI's
#: ``--check-invariants`` flag; a module-level switch (rather than a
#: parameter) because experiment drivers take no arguments by contract.
_CHECK_INVARIANTS = False


def set_invariant_checking(enabled: bool) -> None:
    """Enable/disable the post-episode invariant oracle for sweeps."""
    global _CHECK_INVARIANTS
    _CHECK_INVARIANTS = enabled


def invariant_checking_enabled() -> bool:
    return _CHECK_INVARIANTS


#: Worker-process count used by :func:`run_sweep` when the caller does
#: not pass ``jobs`` explicitly (1 = sequential, 0 = one per CPU).
#: Toggled by the CLI's ``--jobs`` flag; a module-level switch for the
#: same reason as ``_CHECK_INVARIANTS``.
_DEFAULT_JOBS = 1


def set_default_jobs(jobs: int) -> None:
    """Set the sweep worker count used when ``jobs`` is not given."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs


def default_jobs() -> int:
    return _DEFAULT_JOBS


#: No sweep consults this cache: every point warms a fresh scenario.
#: Kept because the frozen ``bench/`` harness calls
#: ``sweep_cache().clear()`` and reads its ``hits``/``misses``.
_SWEEP_CACHE = WarmStateCache(max_entries=8)


def sweep_cache() -> WarmStateCache:
    """The process-wide warm-state cache (unused by sweeps; see above)."""
    return _SWEEP_CACHE


def run_point(config: ScenarioConfig, pulses: int, flap_interval: float = 60.0) -> FlapRunResult:
    """Build a fresh scenario and run one episode.

    With :func:`set_invariant_checking` enabled, the drained scenario is
    swept by :func:`repro.analysis.invariants.check_converged_invariants`
    and a violation raises ``SimulationError``.
    """
    scenario = Scenario(config)
    scenario.warm_up()
    result = scenario.run(PulseSchedule.regular(pulses, flap_interval))
    if _CHECK_INVARIANTS:
        # Imported lazily: analysis.invariants imports workload.scenarios,
        # which sits below this module in the layering.
        from repro.analysis.invariants import check_converged_invariants

        check_converged_invariants(scenario).raise_on_violation()
    return result


def run_sweep(
    label: str,
    config: ScenarioConfig,
    pulse_counts: Sequence[int],
    flap_interval: float = 60.0,
    jobs: Optional[int] = None,
) -> SweepSeries:
    """Run one episode per pulse count.

    Episodes are independent: every point builds and warms its own
    fresh scenario; with ``jobs != 1`` points run in a spawn-context
    process pool (see :mod:`repro.experiments.parallel`), which is
    digest-identical to the sequential loop. ``jobs=None`` defers to
    :func:`default_jobs`.
    """
    outcomes = execute_sweep(
        config,
        list(pulse_counts),
        flap_interval=flap_interval,
        jobs=_DEFAULT_JOBS if jobs is None else jobs,
        check_invariants=_CHECK_INVARIANTS,
    )
    series = SweepSeries(label=label)
    for outcome in outcomes:
        series.points.append(
            SweepPoint(
                pulses=outcome.pulses,
                convergence_time=outcome.convergence_time,
                message_count=outcome.message_count,
                suppressions=outcome.suppressions,
                peak_damped_links=outcome.peak_damped_links,
                secondary_charges=outcome.secondary_charges,
                warmup_convergence=outcome.warmup_convergence,
                digest=outcome.digest,
            )
        )
    return series


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """A rendered experiment: identity, headline table(s), raw data."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)
    extra_sections: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")]
        parts.extend(self.extra_sections)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)
