"""Shared experiment machinery: standard configurations, explicit run
options, pulse-count sweeps, the declarative sweep-experiment spec with
its generic runner, and the result container the benchmark harness
renders. Episodes themselves are run by
:func:`repro.workload.scenarios.run_scenario`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.intended import IntendedBehaviorModel
from repro.core.params import CISCO_DEFAULTS, DampingParams
from repro.errors import ExperimentError
from repro.experiments.parallel import PointOutcome, execute_sweep
from repro.metrics.report import render_table
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.topology.model import Topology
from repro.workload.scenarios import ScenarioConfig, WarmStateCache

#: The paper sweeps 0..10 pulses on its figures' x-axes.
DEFAULT_PULSE_COUNTS = tuple(range(0, 11))

#: The reduced sweep used by ``--smoke`` runs (CI wiring checks): enough
#: points to exercise no-flap, single-flap, and suppression onset, small
#: enough to finish in seconds.
SMOKE_PULSE_COUNTS = (0, 1, 2, 3)

#: Seed used by the standard experiments (any fixed value reproduces).
DEFAULT_SEED = 42


def default_pulse_counts() -> List[int]:
    return list(DEFAULT_PULSE_COUNTS)


@dataclass(frozen=True)
class RunOptions:
    """How an experiment is run, as opposed to what it measures.

    Travels as an argument from the caller (``rfd-repro run``) through
    the runner to every episode; nothing here is process state.
    """

    #: Pulse grid replacing each sweep experiment's own; ``None`` keeps it.
    pulse_counts: Optional[Tuple[int, ...]] = None
    #: Sweep every drained episode with the converged-state oracle.
    check_invariants: bool = False
    #: Sweep worker processes (1 = sequential, 0 = one per CPU).
    jobs: int = 1


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


@dataclass
class SweepSeries:
    """One labelled series of a figure (e.g. "Full Damping (mesh)")."""

    label: str
    points: List[PointOutcome] = field(default_factory=list)
    #: What was swept (``None`` on hand-built series).
    config: Optional[ScenarioConfig] = None
    flap_interval: float = 60.0

    def point(self, pulses: int) -> PointOutcome:
        for p in self.points:
            if p.pulses == pulses:
                return p
        raise ExperimentError(f"series {self.label!r} has no point for n={pulses}")

    @property
    def mean_warmup(self) -> float:
        if not self.points:
            return 0.0
        return sum(p.warmup_convergence for p in self.points) / len(self.points)


#: No sweep consults this cache: a sweep warms one trunk scenario per
#: chunk and forks its shorter points off it (see
#: :mod:`repro.experiments.parallel`). Kept because the frozen
#: ``bench/`` harness calls ``sweep_cache().clear()`` and reads its
#: ``hits``/``misses``.
_SWEEP_CACHE = WarmStateCache(max_entries=8)


def sweep_cache() -> WarmStateCache:
    """The process-wide warm-state cache (unused by sweeps; see above)."""
    return _SWEEP_CACHE


def run_sweep(
    label: str,
    config: ScenarioConfig,
    pulse_counts: Sequence[int],
    flap_interval: float = 60.0,
    jobs: int = 1,
    check_invariants: bool = False,
) -> SweepSeries:
    """Run one episode per pulse count.

    Each point's episode is the one a fresh scenario would run; the
    executor runs the largest count once and forks the shorter ones off
    it, and with ``jobs != 1`` does so per chunk in forked worker
    processes (see :mod:`repro.experiments.parallel`), which is
    digest-identical to the sequential loop.
    """
    outcomes = execute_sweep(
        config,
        list(pulse_counts),
        flap_interval=flap_interval,
        jobs=jobs,
        check_invariants=check_invariants,
    )
    return SweepSeries(label, outcomes, config, flap_interval)


def calculation_series(
    pulse_counts: Sequence[int], tup: float, flap_interval: float = 60.0
) -> List[tuple]:
    """The 'Full Damping (calculation)' series of Figure 8."""
    model = IntendedBehaviorModel(CISCO_DEFAULTS, flap_interval=flap_interval, tup=tup)
    return [(n, model.predict(n).convergence_time) for n in pulse_counts]


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


# ----------------------------------------------------------------------
# sweep experiments as data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """One labelled series of a sweep experiment."""

    key: str
    #: Called as ``config(seed=...)``.
    config: Callable[..., ScenarioConfig]
    #: Display label (``None`` = the key).
    label: Optional[str] = None
    flap_interval: float = 60.0
    #: Leading cells of this series' rows in the :class:`Long` layout
    #: (``None`` = the key alone).
    cells: Optional[Tuple[object, ...]] = None


#: ``{(series, pulse counts, seed): swept series}`` — lets one ``run``
#: invocation execute a series several experiments share only once.
SeriesCache = Dict[Tuple[Series, Tuple[int, ...], int], SweepSeries]


def run_series(
    specs: Sequence[Series],
    pulse_counts: Sequence[int],
    options: RunOptions = RunOptions(),
    seed: int = DEFAULT_SEED,
    cache: Optional[SeriesCache] = None,
) -> Dict[str, SweepSeries]:
    """Sweep every series over ``pulse_counts``; without a ``cache``
    every point is always executed."""
    sweeps: Dict[str, SweepSeries] = {}
    for spec in specs:
        cache_key = (spec, tuple(pulse_counts), seed)
        series = cache.get(cache_key) if cache is not None else None
        if series is None:
            series = run_sweep(
                spec.label or spec.key,
                spec.config(seed=seed),
                pulse_counts,
                spec.flap_interval,
                jobs=options.jobs,
                check_invariants=options.check_invariants,
            )
            if cache is not None:
                cache[cache_key] = series
        sweeps[spec.key] = series
    return sweeps


def _cell(value: object) -> object:
    return round(value, 1) if isinstance(value, float) else value


#: What a layout makes of the swept series: headers, rows, extra data.
_Table = Tuple[List[str], List[List[object]], Dict[str, object]]


@dataclass(frozen=True)
class Column:
    """One column of the :class:`Wide` layout: a metric of one series,
    or (``series=None``) the intended-behaviour calculation."""

    header: str
    series: Optional[str]
    metric: str = "convergence_time"


@dataclass(frozen=True)
class Wide:
    """``pulses × series``: one row per pulse count."""

    columns: Tuple[Column, ...]
    #: Key of the series whose mean warm-up is the calculation's t_up.
    calculation: Optional[str] = None

    def table(
        self,
        specs: Sequence[Series],
        sweeps: Dict[str, SweepSeries],
        pulse_counts: Sequence[int],
    ) -> _Table:
        calc: Dict[int, float] = {}
        if self.calculation is not None:
            reference = sweeps[self.calculation]
            calc = dict(
                calculation_series(
                    pulse_counts, reference.mean_warmup, reference.flap_interval
                )
            )
        rows = [
            [n]
            + [
                _cell(
                    calc[n]
                    if column.series is None
                    else getattr(sweeps[column.series].point(n), column.metric)
                )
                for column in self.columns
            ]
            for n in pulse_counts
        ]
        headers = ["pulses"] + [column.header for column in self.columns]
        return headers, rows, {"calculation": calc}


#: Column header of each per-point metric in the :class:`Long` layout.
_METRIC_HEADERS = {
    "convergence_time": "conv_time_s",
    "message_count": "messages",
    "suppressions": "suppressions",
    "secondary_charges": "secondary_charges",
}


@dataclass(frozen=True)
class Long:
    """``variant, pulses, metrics…``: one row per (series, pulse count),
    led by the series' ``cells``."""

    #: Headers of the series' leading ``cells``.
    lead: Tuple[str, ...]
    metrics: Tuple[str, ...] = ("convergence_time", "message_count", "suppressions")
    #: Append the intended convergence time under each series' own
    #: damping parameters, flap interval and measured warm-up.
    intended: bool = False

    def table(
        self,
        specs: Sequence[Series],
        sweeps: Dict[str, SweepSeries],
        pulse_counts: Sequence[int],
    ) -> _Table:
        headers = [*self.lead, "pulses", *(_METRIC_HEADERS[m] for m in self.metrics)]
        if self.intended:
            headers.append("intended_s")
        rows: List[List[object]] = []
        for spec in specs:
            series = sweeps[spec.key]
            if self.intended:
                assert series.config is not None
                model = IntendedBehaviorModel(
                    series.config.damping,
                    flap_interval=series.flap_interval,
                    tup=series.mean_warmup,
                )
            cells = (spec.key,) if spec.cells is None else spec.cells
            for point in series.points:
                row = [*cells, point.pulses]
                row += [_cell(getattr(point, metric)) for metric in self.metrics]
                if self.intended:
                    row.append(_cell(model.predict(point.pulses).convergence_time))
                rows.append(row)
        return headers, rows, {}


@dataclass(frozen=True)
class Sweep:
    """A sweep-shaped experiment: series × pulse grid → one table."""

    experiment_id: str
    title: str
    #: The series, or a callable building them (when they depend on a
    #: topology that should not be built at import time).
    series: Union[Tuple[Series, ...], Callable[[], Tuple[Series, ...]]]
    layout: Union[Wide, Long]
    notes: Tuple[str, ...] = ()
    pulse_counts: Tuple[int, ...] = DEFAULT_PULSE_COUNTS

    def specs(self) -> Tuple[Series, ...]:
        return self.series() if callable(self.series) else self.series

    def run(
        self, options: RunOptions = RunOptions(), cache: Optional[SeriesCache] = None
    ) -> ExperimentResult:
        counts = list(
            self.pulse_counts if options.pulse_counts is None else options.pulse_counts
        )
        specs = self.specs()
        sweeps = run_series(specs, counts, options, cache=cache)
        headers, rows, extra = self.layout.table(specs, sweeps, counts)
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            headers=headers,
            rows=rows,
            notes=list(self.notes),
            data={"sweeps": sweeps, "pulse_counts": counts, **extra},
        )
