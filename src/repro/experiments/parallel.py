"""Deterministic process-pool sweep executor.

Every figure and ablation is a sweep of *independent* episodes: each
(config, pulse count) point builds and warms its own scenario from its
own seed, so points can run in any process, in any order, without
sharing state. This module is the one place such fan-out is allowed
(detlint rule DET010 flags ``multiprocessing``/``concurrent.futures``
anywhere else), and it provides a hard guarantee: results are
**digest-identical** to the sequential path, whatever ``jobs`` or the
chunk geometry is.

The guarantee holds by construction:

* Each point's scenario derives every random draw from the point's own
  :class:`~repro.sim.rng.RngRegistry` master seed — nothing is drawn
  from shared or process-global randomness.
* Sequential loop and workers alike build a fresh
  :class:`~repro.workload.scenarios.Scenario` from the bare
  :class:`~repro.workload.scenarios.ScenarioConfig` and warm it up per
  point; only the config crosses the process boundary.
* The pool uses the ``spawn`` start method, so workers import a fresh
  interpreter instead of inheriting forked state, and results are
  collected in submission order regardless of completion order.

Two mechanisms keep ``jobs=N`` from drowning in dispatch overhead:

* **Persistent warm pools** (:class:`_PoolManager`): spawn workers cost
  a full interpreter start + import each, so pools are kept alive and
  reused across ``execute_sweep`` calls instead of being rebuilt per
  sweep. A broken or timed-out pool is discarded; healthy pools return
  to the warm set.
* **Chunked scheduling** (:func:`resolve_chunk_size`): points are
  submitted in contiguous chunks so per-task IPC is amortised on
  many-small-point grids; collection stays in submission order, so
  chunking never reorders results.

Episode outcomes cross the process boundary as compact picklable
:class:`PointOutcome` records (metrics plus the run digest), never as
full result objects with their collectors and traces.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.digest import run_digest
from repro.sim.rng import RngRegistry
from repro.trace.sinks import JsonlSink
from repro.trace.tracer import Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig, run_scenario

#: Auto-chunking target: enough chunks per worker that completion skew
#: stays small, few enough that dispatch overhead is amortised.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class PointOutcome:
    """One sweep point's metrics, compact and picklable.

    The points of a :class:`repro.experiments.base.SweepSeries`; the run
    digest is what the determinism tests compare byte-for-byte
    between sequential and parallel execution.
    """

    pulses: int
    convergence_time: float
    message_count: int
    suppressions: int
    peak_damped_links: int
    secondary_charges: int
    warmup_convergence: float
    digest: str
    #: SHA-256 of the point's canonical JSONL trace when tracing was
    #: requested (``trace_dir``); ``None`` otherwise. Identical whatever
    #: ``jobs`` is — the parallel determinism guarantee covers traces too.
    trace_digest: Optional[str] = None


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores even inside a cgroup or
    affinity-restricted container; the scheduler affinity mask is the
    honest ceiling for how many workers can make progress, so ``jobs=0``
    and the perf benchmarks use this instead.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return len(affinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``1`` = sequential,
    ``0`` = one worker per *available* CPU (affinity-aware, so container
    CPU limits are respected), ``N`` = that many workers."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return available_cpus()
    return jobs


def resolve_chunk_size(
    chunk_size: Optional[int], point_count: int, worker_count: int
) -> int:
    """Points per submitted task. ``None`` auto-sizes to roughly
    :data:`_CHUNKS_PER_WORKER` chunks per worker — 1 for figure-sized
    sweeps (big points, negligible dispatch), larger for many-point
    ablation grids where per-task IPC would dominate."""
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    if worker_count <= 1:
        return max(1, point_count)
    return max(1, math.ceil(point_count / (worker_count * _CHUNKS_PER_WORKER)))


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-point (or per-replicate) seed derived through
    :meth:`RngRegistry.fork`, so multi-seed sweeps stay reproducible
    without seed arithmetic scattered across experiments."""
    return RngRegistry(master_seed).fork(label).master_seed


# ----------------------------------------------------------------------
# per-point work (sequential loop and worker processes alike)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SweepSpec:
    """Everything needed to run any point of a sweep, kept deliberately
    tiny. Because the spec rides on every chunk instead of the pool
    initializer, one persistent pool serves sweeps over different
    configs back to back."""

    config: ScenarioConfig
    flap_interval: float
    check_invariants: bool
    trace_dir: Optional[str]
    audit_timers: bool


def _run_point(spec: _SweepSpec, index: int, pulses: int) -> PointOutcome:
    """Run the point's episode on a fresh scenario and reduce it to a
    :class:`PointOutcome`; with a ``trace_dir`` the episode's causal
    trace is written as canonical JSONL and its digest recorded."""
    tracer: Optional[Tracer] = None
    if spec.trace_dir is not None:
        # Stable, index-ordered, pulse-labelled.
        name = f"point_{index:03d}_p{pulses}.jsonl"
        tracer = Tracer(JsonlSink(os.path.join(spec.trace_dir, name)))
    trace_digest: Optional[str] = None
    try:
        _scenario, result = run_scenario(
            spec.config,
            PulseSchedule.regular(pulses, spec.flap_interval),
            check_invariants=spec.check_invariants,
            audit_timers=spec.audit_timers,
            tracer=tracer,
        )
    finally:
        if tracer is not None:
            trace_digest = tracer.close()
    summary = result.summary
    return PointOutcome(
        pulses=pulses,
        convergence_time=result.convergence_time,
        message_count=result.message_count,
        suppressions=summary.total_suppressions,
        peak_damped_links=summary.peak_damped_links,
        secondary_charges=summary.secondary_charges,
        warmup_convergence=result.warmup_convergence,
        digest=run_digest(result.collector),
        trace_digest=trace_digest,
    )


#: One chunk of work: contiguous ``(index, pulses)`` tasks.
_Chunk = Tuple[Tuple[int, int], ...]


def _worker_run_chunk(
    spec: _SweepSpec, tasks: _Chunk
) -> List[Tuple[int, PointOutcome]]:
    """Run every point of a chunk and return (index, outcome) pairs."""
    return [(index, _run_point(spec, index, pulses)) for index, pulses in tasks]


# ----------------------------------------------------------------------
# persistent pools
# ----------------------------------------------------------------------


class _PoolManager:
    """Keeps spawn pools warm across sweeps.

    A spawn worker pays a full interpreter start plus ``import repro``
    — comparable to several episodes — so tearing the pool down after
    every sweep forfeits most of the multi-core win for short sweeps
    and multi-sweep experiments. Healthy pools are parked here on sweep
    completion and handed back to the next sweep with the same shape;
    broken or timed-out pools are discarded (their wedged workers make
    them unreusable). Keys include the executor class so the hardening
    tests' fake pools never alias real ones.
    """

    def __init__(self) -> None:
        self._idle: Dict[Tuple[object, int, str], ProcessPoolExecutor] = {}

    def acquire(
        self, worker_count: int, start_method: str
    ) -> Tuple[Tuple[object, int, str], ProcessPoolExecutor]:
        executor_cls = ProcessPoolExecutor  # module attr: monkeypatch seam
        key = (executor_cls, worker_count, start_method)
        pool = self._idle.pop(key, None)
        if pool is None:
            context = multiprocessing.get_context(start_method)
            pool = executor_cls(max_workers=worker_count, mp_context=context)
        return key, pool

    def release(
        self, key: Tuple[object, int, str], pool: ProcessPoolExecutor
    ) -> None:
        """Park a healthy pool for reuse (folding any duplicate)."""
        if key in self._idle:
            pool.shutdown(wait=False, cancel_futures=True)
            return
        self._idle[key] = pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a pool we no longer trust. Never a blocking shutdown: a
        wedged worker would hang it forever, and cancel_futures strands
        nothing we keep — unfinished points are resubmitted elsewhere."""
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown_all(self) -> None:
        for pool in self._idle.values():
            pool.shutdown(wait=False, cancel_futures=True)
        self._idle.clear()


_POOLS = _PoolManager()
atexit.register(_POOLS.shutdown_all)


def shutdown_worker_pools() -> None:
    """Tear down every warm worker pool (tests, embedders)."""
    _POOLS.shutdown_all()


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------


def _chunk_tasks(tasks: Sequence[Tuple[int, int]], size: int) -> List[_Chunk]:
    """Contiguous chunks in task order — deterministic for a given
    (missing tasks, size), so retries re-chunk reproducibly."""
    return [tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)]


def _salvage_chunks(
    submitted: Sequence[Tuple[_Chunk, "Future[List[Tuple[int, PointOutcome]]]"]],
    results: Dict[int, PointOutcome],
) -> None:
    """Harvest every chunk that finished cleanly before the pool broke,
    without blocking on the ones that did not. Completed points are
    kept; only the genuinely missing ones are resubmitted."""
    for _chunk, future in submitted:
        if not future.done():
            continue
        try:
            outcomes = future.result(timeout=0)
        except BaseException:
            # Broken-pool / cancelled / crashed futures are retried by
            # the caller; only clean outcomes are worth keeping.
            continue
        for index, outcome in outcomes:
            results.setdefault(index, outcome)


def execute_sweep(
    config: ScenarioConfig,
    pulse_counts: Sequence[int],
    flap_interval: float = 60.0,
    jobs: Optional[int] = 1,
    check_invariants: bool = False,
    mp_start_method: str = "spawn",
    trace_dir: Optional[str] = None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    audit_timers: bool = False,
    chunk_size: Optional[int] = None,
) -> List[PointOutcome]:
    """Run one episode per pulse count, optionally across processes.

    ``jobs`` follows the CLI convention (``1`` sequential in-process,
    ``0`` one worker per available CPU, ``N`` workers otherwise).
    Every point builds and warms its own fresh scenario from
    ``config``. Outcomes are returned in ``pulse_counts`` order and are
    digest-identical whatever ``jobs`` or ``chunk_size`` resolve to.

    ``chunk_size`` groups points into contiguous per-task chunks
    (``None`` auto-sizes — see :func:`resolve_chunk_size`); it is the
    seam the chunk-geometry determinism test drives, not a tuning knob.

    ``trace_dir`` enables causal tracing: each point writes its canonical
    JSONL trace to ``<trace_dir>/point_<index>_p<pulses>.jsonl`` (the
    directory is created if needed), and each outcome carries the trace's
    digest. Every per-point file is written wholly by whichever process
    ran that point, so the files — like the outcomes — are byte-identical
    between sequential and parallel execution.

    The parallel path is hardened against *pool-level* failures — a
    worker process dying (OOM killer, segfault) breaks the whole
    executor, and a wedged worker would block forever:

    * ``point_timeout`` bounds the wall-clock wait for each point once
      the executor starts waiting on it (``None`` = wait forever); a
      chunk's budget is ``point_timeout * len(chunk)``;
    * when the pool breaks or a chunk times out, every already-completed
      outcome is salvaged, the pool is discarded (a wedged worker makes
      it unreusable), and only the missing points are resubmitted to a
      fresh pool, up to ``max_retries`` extra attempts.

    Deterministic failures — an episode raising ``SimulationError``,
    an invariant or timer-audit violation — are *not* retried: rerunning
    the same seed reproduces them, so they propagate immediately.
    Because every point is a pure function of ``(config, task)``,
    salvage-and-retry cannot change results, only recover them.
    """
    counts = [int(p) for p in pulse_counts]
    worker_count = resolve_jobs(jobs)
    if max_retries < 0:
        raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
    if point_timeout is not None and point_timeout <= 0:
        raise ConfigurationError(
            f"point_timeout must be > 0 seconds, got {point_timeout}"
        )
    if not counts:
        return []
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    spec = _SweepSpec(
        config=config,
        flap_interval=flap_interval,
        check_invariants=check_invariants,
        trace_dir=trace_dir,
        audit_timers=audit_timers,
    )
    tasks = list(enumerate(counts))
    if worker_count == 1 or len(counts) == 1:
        return [_run_point(spec, index, pulses) for index, pulses in tasks]

    size = resolve_chunk_size(chunk_size, len(tasks), worker_count)
    results: Dict[int, PointOutcome] = {}
    failures: List[str] = []
    for attempt in range(max_retries + 1):
        missing = [task for task in tasks if task[0] not in results]
        if not missing:
            break
        key, pool = _POOLS.acquire(worker_count, mp_start_method)
        submitted: List[Tuple[_Chunk, "Future[List[Tuple[int, PointOutcome]]]"]] = []
        broke = False
        try:
            try:
                for piece in _chunk_tasks(missing, size):
                    submitted.append(
                        (piece, pool.submit(_worker_run_chunk, spec, piece))
                    )
            except BrokenExecutor as exc:
                failures.append(
                    f"attempt {attempt + 1}: pool broke during submission "
                    f"({type(exc).__name__})"
                )
                broke = True
            # Collect in submission order so output ordering never depends
            # on completion order.
            for piece, future in submitted:
                if broke:
                    break
                budget = (
                    point_timeout * len(piece) if point_timeout is not None else None
                )
                pulses_in_piece = [pulses for _index, pulses in piece]
                try:
                    for index, outcome in future.result(timeout=budget):
                        results[index] = outcome
                except BrokenExecutor as exc:
                    failures.append(
                        f"attempt {attempt + 1}: pool broke at chunk "
                        f"n={pulses_in_piece} ({type(exc).__name__})"
                    )
                    broke = True
                    break
                except FutureTimeoutError:
                    failures.append(
                        f"attempt {attempt + 1}: chunk n={pulses_in_piece} "
                        f"exceeded {budget}s"
                    )
                    broke = True
                    break
        except BaseException:
            # Deterministic episode errors propagate immediately; the
            # pool may be healthy but its outstanding chunks are moot,
            # so drop it rather than hand it to the next sweep mid-drain.
            _POOLS.discard(pool)
            raise
        if broke:
            _salvage_chunks(submitted, results)
            _POOLS.discard(pool)
        else:
            _POOLS.release(key, pool)

    still_missing = sorted(
        pulses for index, pulses in tasks if index not in results
    )
    if still_missing:
        raise SimulationError(
            f"sweep lost {len(still_missing)} point(s) "
            f"(pulses={still_missing}) after {max_retries + 1} attempt(s): "
            + "; ".join(failures[-3:])
        )
    return [results[index] for index, _ in tasks]


__all__ = [
    "PointOutcome",
    "available_cpus",
    "derive_seed",
    "execute_sweep",
    "resolve_chunk_size",
    "resolve_jobs",
    "shutdown_worker_pools",
]
