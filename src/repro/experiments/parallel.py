"""Deterministic sweep executor: prefix-shared branches and a spawn pool.

Every figure and ablation is a sweep over the pulse count ``n`` of one
config, and a regular ``n``-pulse train is by construction the first
part of every longer one. So a sweep does not replay that shared part
per point. One **trunk** scenario is built, warmed and started with the
largest count; for each smaller ``n``, in ascending order, the trunk
drains every event strictly before its ``(n+1)``-th withdrawal, then
forks (``os.fork``) a **branch** that cancels the flaps still to come,
drains, and reduces to a :class:`PointOutcome`, which it pipes back
pickled (or the exception it raised). The trunk then runs on and ends
as the largest point. This module is the one place such fan-out is
allowed (detlint rule DET010 flags ``multiprocessing``,
``concurrent.futures`` and ``os.fork`` anywhere else), and it provides
a hard guarantee: results are **digest-identical** to replaying every
point on a fresh scenario, whatever ``jobs`` or the chunk geometry is.

The guarantee holds by construction:

* Flap events are scheduled at episode start, ahead of every protocol
  event, so a longer train changes no same-instant tie-break before
  its first extra flap, and cancelling those flaps leaves exactly the
  shorter episode's queue (:class:`~repro.workload.scenarios.Episode`).
* Every random draw comes from a per-name stream of the scenario's
  :class:`~repro.sim.rng.RngRegistry`, and flaps draw none, so the
  trunk's streams are the shorter episode's streams.
* A branch runs on the trunk's own objects, shared copy-on-write: it
  runs the converged-state oracle, the timer audit and the tracer
  exactly as a fresh point would, and writes its own trace file.
* Pool workers use the ``spawn`` start method: only the bare
  :class:`~repro.workload.scenarios.ScenarioConfig` crosses the process
  boundary, each worker runs the same trunk-and-branches runner over
  one contiguous chunk, and results are collected in submission order.

Forking is only safe from a single-threaded process. Where there is no
``os.fork`` or more than one thread is alive (a warm pool's manager
threads, say), every point is replayed on a fresh scenario instead
(:func:`_run_point`), which is also the reference the equivalence
tests hold the branches to. Branches are forked, not pickled: a warmed
mesh100 scenario pickles to 1.4 MB (its 303 Mersenne-Twister streams
alone are 1.15 MB) and takes ~70 ms to dump and load, more than most
branch tails take to run, and episodes on unpickled objects run
13–18 % slower.

**Persistent warm pools** (:class:`_PoolManager`): spawn workers cost a
full interpreter start + import each, so pools are kept alive and
reused across ``execute_sweep`` calls instead of being rebuilt per
sweep. A broken or timed-out pool is discarded; healthy pools return to
the warm set.

Episode outcomes cross process boundaries as compact picklable
:class:`PointOutcome` records (metrics plus the run digest), never as
full result objects with their collectors and traces. A finished
scenario is one large reference cycle, so each chunk collects its trunk
before the next is built: a process holds one scenario at a time.
"""

from __future__ import annotations

import atexit
import gc
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.digest import run_digest
from repro.trace.sinks import JsonlSink
from repro.trace.tracer import Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import (
    Episode,
    FlapRunResult,
    Scenario,
    ScenarioConfig,
    run_scenario,
    verify_episode,
    warmed_scenario,
)


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
    """Points per submitted task. ``None`` gives each worker one
    contiguous chunk: a chunk shares one trunk among its points, so
    fewer, longer chunks do less work in total."""
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    return max(1, math.ceil(point_count / worker_count))


def _pulse_counts(pulse_counts: Sequence[int]) -> List[int]:
    """The requested counts as ints; a non-integral or negative count
    is a :class:`ConfigurationError` before any point runs."""
    counts = []
    for raw in pulse_counts:
        try:
            count = int(raw)
        except (TypeError, ValueError, OverflowError):
            count = -1
        if count < 0 or count != raw:
            raise ConfigurationError(
                f"pulse counts must be non-negative integers, got {raw!r}"
            )
        counts.append(count)
    return counts


# ----------------------------------------------------------------------
# trunk, branches and per-point replay (in process and in workers alike)
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


def _trace_path(spec: _SweepSpec, index: int, pulses: int) -> str:
    """Stable, index-ordered, pulse-labelled point trace file."""
    assert spec.trace_dir is not None
    return os.path.join(spec.trace_dir, f"point_{index:03d}_p{pulses}.jsonl")


def _outcome(
    pulses: int, result: FlapRunResult, trace_digest: Optional[str]
) -> PointOutcome:
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


def _run_point(spec: _SweepSpec, index: int, pulses: int) -> PointOutcome:
    """Replay one point on a fresh scenario and reduce it to a
    :class:`PointOutcome`; with a ``trace_dir`` the episode's causal
    trace is written as canonical JSONL and its digest recorded. The
    reference the branches are held to, and the path for processes that
    cannot fork safely."""
    tracer: Optional[Tracer] = None
    if spec.trace_dir is not None:
        tracer = Tracer(JsonlSink(_trace_path(spec, index, pulses)))
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
    outcome = _outcome(pulses, result, trace_digest)
    # A finished scenario is one reference cycle that reference counting
    # never frees: collect it now, before the next point is built.
    del _scenario, result
    gc.collect()
    return outcome


def _finish_point(
    spec: _SweepSpec,
    scenario: Scenario,
    episode: Episode,
    tracer: Optional[Tracer],
    indices: Sequence[int],
) -> PointOutcome:
    """Drain a trunk or branch and reduce it as :func:`_run_point`
    would, writing its trace to every index that asked for its count."""
    pulses = episode.schedule.pulse_count
    trace_digest: Optional[str] = None
    try:
        result = scenario.finish_episode(episode)
        verify_episode(scenario, check_invariants=spec.check_invariants)
    finally:
        if tracer is not None:
            for index in indices:
                sink = JsonlSink(_trace_path(spec, index, pulses))
                trace_digest = sink.write(tracer.records)
    return _outcome(pulses, result, trace_digest)


def _can_fork() -> bool:
    """A fork is safe only from a single-threaded process: a lock held
    by another thread would stay held forever in the child."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _in_branch(pulses: int, work: Callable[[], PointOutcome]) -> PointOutcome:
    """Run ``work`` in a forked child and return its outcome, or raise
    the exception it raised. A child that dies without answering is a
    :class:`SimulationError` naming its pulse count."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child, which never returns
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_answer(work))
            code = 0
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            answer = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    # A child exits 0 only once its whole answer is in the pipe.
    if status != 0 or not answer:
        raise SimulationError(
            f"sweep branch n={pulses} exited without a result "
            f"({_describe_status(status)})"
        )
    ok, value = pickle.loads(answer)
    if not ok:
        raise value
    return value


def _answer(work: Callable[[], PointOutcome]) -> bytes:
    """The pickled ``(True, outcome)`` or ``(False, exception)``; an
    exception that does not survive a pickle round trip is sent as a
    :class:`SimulationError` carrying its type name and message."""
    try:
        return pickle.dumps((True, work()))
    except BaseException as exc:  # boundary: the parent re-raises it
        try:
            answer = pickle.dumps((False, exc))
            pickle.loads(answer)
            return answer
        except Exception:
            error = SimulationError(f"{type(exc).__name__}: {exc}")
            return pickle.dumps((False, error))


def _describe_status(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exit status {os.WEXITSTATUS(status)}"


#: One chunk of work: contiguous ``(index, pulses)`` tasks.
_Chunk = Tuple[Tuple[int, int], ...]


def _worker_run_chunk(
    spec: _SweepSpec, tasks: _Chunk
) -> List[Tuple[int, PointOutcome]]:
    """Run every point of a chunk and return (index, outcome) pairs.

    One trunk runs the largest count; every smaller count is a branch
    forked off it just before the trunk's first flap that count lacks.
    Duplicate counts share one branch.
    """
    if not _can_fork():
        return [(index, _run_point(spec, index, pulses)) for index, pulses in tasks]
    indices: Dict[int, List[int]] = {}
    for index, pulses in tasks:
        indices.setdefault(pulses, []).append(index)
    counts = sorted(indices)
    tracer = Tracer() if spec.trace_dir is not None else None
    scenario = warmed_scenario(spec.config, audit_timers=spec.audit_timers)
    episode = scenario.start_episode(
        PulseSchedule.regular(counts[-1], spec.flap_interval), tracer
    )
    outcomes: Dict[int, PointOutcome] = {}
    for pulses in counts:
        if pulses < counts[-1]:
            prefix = PulseSchedule.regular(pulses, spec.flap_interval)
            scenario.engine.run_before(episode.branch_point(prefix))

            def branch() -> PointOutcome:
                episode.truncate(prefix)
                return _finish_point(spec, scenario, episode, tracer, indices[pulses])

            outcome = _in_branch(pulses, branch)
        else:  # the trunk itself ends as the largest point
            outcome = _finish_point(spec, scenario, episode, tracer, indices[pulses])
        for index in indices[pulses]:
            outcomes[index] = outcome
    # The trunk is one reference cycle: collect it before the next chunk.
    del scenario, episode, tracer
    gc.collect()
    return [(index, outcomes[index]) for index, _ in tasks]


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
        self._idle: Dict[Tuple[object, int], ProcessPoolExecutor] = {}

    def acquire(
        self, worker_count: int
    ) -> Tuple[Tuple[object, int], ProcessPoolExecutor]:
        executor_cls = ProcessPoolExecutor  # module attr: monkeypatch seam
        key = (executor_cls, worker_count)
        pool = self._idle.pop(key, None)
        if pool is None:
            context = multiprocessing.get_context("spawn")
            pool = executor_cls(max_workers=worker_count, mp_context=context)
        return key, pool

    def release(
        self, key: Tuple[object, int], pool: ProcessPoolExecutor
    ) -> None:
        """Park a healthy pool for reuse (folding any duplicate)."""
        if key in self._idle:
            pool.shutdown(wait=True, cancel_futures=True)
            return
        self._idle[key] = pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a pool we no longer trust. Never a blocking shutdown: a
        wedged worker would hang it forever, and cancel_futures strands
        nothing we keep — unfinished points are resubmitted elsewhere."""
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown_all(self) -> None:
        """Shut every idle pool down and join it. An idle pool has no
        work left, so the join is quick, and afterwards none of its
        threads is alive: the process may fork branches again."""
        for pool in self._idle.values():
            pool.shutdown(wait=True, cancel_futures=True)
        self._idle.clear()


_POOLS = _PoolManager()
atexit.register(_POOLS.shutdown_all)


def shutdown_worker_pools() -> None:
    """Tear down and join every warm worker pool (tests, embedders)."""
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
    trace_dir: Optional[str] = None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    audit_timers: bool = False,
    chunk_size: Optional[int] = None,
) -> List[PointOutcome]:
    """Run one episode per pulse count, optionally across processes.

    ``jobs`` follows the CLI convention (``1`` sequential in-process,
    ``0`` one worker per available CPU, ``N`` workers otherwise). Each
    process runs its counts as one trunk and forked branches (see the
    module docstring), so a sweep builds and warms one scenario per
    chunk, not per point. Counts may come in any order and repeat; a
    non-integral or negative count is a ``ConfigurationError`` before
    anything runs. Outcomes are returned in ``pulse_counts`` order and
    are digest-identical to replaying each point on a fresh scenario,
    whatever ``jobs`` or ``chunk_size`` resolve to.

    ``chunk_size`` groups points into contiguous per-task chunks
    (``None`` gives each worker one chunk — see
    :func:`resolve_chunk_size`); it is the seam the chunk-geometry
    determinism test drives, not a tuning knob.

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
    an invariant or timer-audit violation, in a trunk or a branch — are
    *not* retried: rerunning the same seed reproduces them, so they
    propagate immediately. A branch that dies without answering raises
    ``SimulationError`` naming its pulse count. Because every point is
    a pure function of ``(config, pulses)``, salvage-and-retry cannot
    change results, only recover them.
    """
    counts = _pulse_counts(pulse_counts)
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
        return [outcome for _, outcome in _worker_run_chunk(spec, tuple(tasks))]

    size = resolve_chunk_size(chunk_size, len(tasks), worker_count)
    results: Dict[int, PointOutcome] = {}
    failures: List[str] = []
    for attempt in range(max_retries + 1):
        missing = [task for task in tasks if task[0] not in results]
        if not missing:
            break
        key, pool = _POOLS.acquire(worker_count)
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
    "execute_sweep",
    "resolve_chunk_size",
    "resolve_jobs",
    "shutdown_worker_pools",
]
