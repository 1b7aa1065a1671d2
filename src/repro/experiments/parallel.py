"""Deterministic sweep executor: prefix-shared branches in forked chunks.

Every figure and ablation is a sweep over the pulse count ``n`` of one
config, and a regular ``n``-pulse train is by construction the first
part of every longer one. So a sweep does not replay that shared part
per point. One **trunk** scenario is built, warmed and started with the
largest count; for each smaller ``n``, in ascending order, the trunk
drains every event strictly before its ``(n+1)``-th withdrawal, then
forks (``os.fork``) a **branch** that cancels the flaps still to come,
drains, and reduces to a :class:`PointOutcome`, which it pipes back
pickled (or the exception it raised). The trunk then runs on and ends
as the largest point. With ``jobs > 1`` the counts are cut into one
contiguous **chunk** per worker, and each chunk runs the same trunk and
branches in a child forked from the caller. ``os.fork`` is the only way
this module starts a process, and this module is the one place such
fan-out is allowed (``tests/unit/test_source_rules.py`` fails on
``multiprocessing``, ``concurrent.futures`` or ``os.fork`` anywhere
else). It provides a
hard guarantee: results are **digest-identical** to replaying every
point on a fresh scenario, whatever ``jobs`` is.

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
* A chunk child builds its trunk from the bare
  :class:`~repro.workload.scenarios.ScenarioConfig`, like the caller
  would, and the caller joins the chunks in submission order.

Forking is only safe from a single-threaded process. Where there is no
``os.fork`` or more than one thread is alive, every point is replayed
on a fresh scenario in the caller instead (:func:`_run_point`),
whatever ``jobs`` is; that replay is also the reference the equivalence
tests hold the branches to. Branches are forked, not pickled: a warmed
mesh100 scenario pickles to 1.4 MB (its 303 Mersenne-Twister streams
alone are 1.15 MB) and takes ~70 ms to dump and load, more than most
branch tails take to run, and episodes on unpickled objects run
13–18 % slower.

Episode outcomes cross process boundaries as compact picklable
:class:`PointOutcome` records (metrics plus the run digest), never as
full result objects with their collectors and traces. A finished
scenario is one large reference cycle, so each chunk collects its trunk
before the next is built: a process holds one scenario at a time.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError, check_number
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
    isp_reuse: Optional[float]
    last_other_noisy_reuse: Optional[float]
    digest: str
    #: SHA-256 of the point's canonical JSONL trace when tracing was
    #: requested (``trace_dir``); ``None`` otherwise. Identical whatever
    #: ``jobs`` is — the parallel determinism guarantee covers traces too.
    trace_digest: Optional[str] = None

    @property
    def muffled(self) -> bool:
        """After the final announcement only the ISP's reuse is noisy."""
        return self.isp_reuse is not None and self.last_other_noisy_reuse is None


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
    CPU limits are respected), ``N`` = that many workers. Anything but
    ``None`` or a non-negative ``int`` (a ``bool`` is not one) is a
    :class:`ConfigurationError`."""
    if jobs is None:
        return 1
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
        raise ConfigurationError(f"jobs must be an integer >= 0, got {jobs!r}")
    if jobs == 0:
        return available_cpus()
    return jobs


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
    """Everything needed to run any point of a sweep: the caller, each
    chunk child and :func:`_run_point` build from this alone."""

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
        isp_reuse=summary.isp_reuse,
        last_other_noisy_reuse=summary.last_other_noisy_reuse,
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


def _fork(
    work: Callable[[], object], timeout: Optional[float] = None
) -> Tuple[int, int]:
    """Run ``work`` in a forked child; return the child's pid and the
    read end of the pipe its answer (:func:`_answer`) arrives on.

    With a ``timeout`` the child restores SIGALRM's default action and
    arms a real-time timer, so running past ``timeout`` seconds kills
    it. A fork does not inherit timers, so a child forked without a
    ``timeout`` re-arms whatever time its parent had left: a branch
    dies at the same instant as the chunk it was forked from, instead of
    holding the chunk's pipe open after the chunk is gone."""
    deadline = signal.getitimer(signal.ITIMER_REAL)[0] if timeout is None else timeout
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child, which never returns
        os.close(read_fd)
        code = 1
        try:
            if timeout is not None:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
            if deadline > 0:
                # Past ~292 years setitimer overflows; that is no bound anyway.
                deadline = min(deadline, threading.TIMEOUT_MAX)
                signal.setitimer(signal.ITIMER_REAL, deadline)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_answer(work))
            code = 0
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _join(pid: int, read_fd: int, label: str) -> Any:
    """Read a forked child's answer, reap the child, and return its
    value or raise the exception it raised. A child that dies without
    answering is a :class:`SimulationError` naming ``label`` and how
    the child ended."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            answer = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    # A child exits 0 only once its whole answer is in the pipe.
    if status != 0 or not answer:
        raise SimulationError(
            f"{label} exited without a result ({_describe_status(status)})"
        )
    ok, value = pickle.loads(answer)
    if not ok:
        raise value
    return value


def _answer(work: Callable[[], object]) -> bytes:
    """The pickled ``(True, value)`` or ``(False, exception)``; an
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

            outcome = _join(*_fork(branch), f"sweep branch n={pulses}")
        else:  # the trunk itself ends as the largest point
            outcome = _finish_point(spec, scenario, episode, tracer, indices[pulses])
        for index in indices[pulses]:
            outcomes[index] = outcome
    # The trunk is one reference cycle: collect it before the next chunk.
    del scenario, episode, tracer
    gc.collect()
    return [(index, outcomes[index]) for index, _ in tasks]


def shutdown_worker_pools() -> None:
    """Kept so existing imports resolve; does nothing. Chunk workers are
    forked per sweep and reaped before :func:`execute_sweep` returns,
    so there is no pool to shut down."""


def execute_sweep(
    config: ScenarioConfig,
    pulse_counts: Sequence[int],
    flap_interval: float = 60.0,
    jobs: Optional[int] = 1,
    check_invariants: bool = False,
    trace_dir: Optional[str] = None,
    point_timeout: Optional[float] = None,
    audit_timers: bool = False,
) -> List[PointOutcome]:
    """Run one episode per pulse count, optionally across processes.

    ``jobs`` follows the CLI convention (``1`` sequential in-process,
    ``0`` one worker per available CPU, ``N`` workers otherwise). With
    more than one worker the counts are cut into ``ceil(len / jobs)``-
    point contiguous chunks and each chunk runs in a forked child. Each
    process runs its counts as one trunk and forked branches (see the
    module docstring), so a sweep builds and warms one scenario per
    chunk, not per point. Counts may come in any order and repeat; a
    non-integral or negative count is a ``ConfigurationError`` before
    anything runs. Outcomes are returned in ``pulse_counts`` order and
    are digest-identical to replaying each point on a fresh scenario,
    whatever ``jobs`` resolves to. A process that cannot fork safely
    (no ``os.fork``, or another thread alive) replays every point in
    the caller, whatever ``jobs`` is.

    ``trace_dir`` enables causal tracing: each point writes its canonical
    JSONL trace to ``<trace_dir>/point_<index>_p<pulses>.jsonl`` (the
    directory is created if needed), and each outcome carries the trace's
    digest. Every per-point file is written wholly by whichever process
    ran that point, so the files — like the outcomes — are byte-identical
    between sequential and parallel execution.

    ``point_timeout`` (a finite number of seconds > 0, or ``None`` for
    no bound) bounds each chunk child at ``point_timeout * len(chunk)``
    seconds: past it, SIGALRM kills the chunk and the branch it has in
    flight. Sequential sweeps ignore it.

    Nothing is retried: every point is a pure function of ``(config,
    pulses)``, so a rerun would fail the same way. An episode error —
    ``SimulationError``, an invariant or timer-audit violation, in a
    trunk or a branch — re-raises in the caller with its type and
    message. A chunk or branch that dies without answering (killed,
    timed out) raises ``SimulationError`` naming its pulse counts and
    the signal or exit status. When one chunk fails, every other chunk
    is killed and reaped before the error propagates.
    """
    counts = _pulse_counts(pulse_counts)
    worker_count = resolve_jobs(jobs)
    check_number("flap_interval", flap_interval, gt=0)
    if point_timeout is not None:
        check_number("point_timeout", point_timeout, gt=0)
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
    if worker_count == 1 or len(tasks) == 1 or not _can_fork():
        return [outcome for _, outcome in _worker_run_chunk(spec, tuple(tasks))]

    size = math.ceil(len(tasks) / worker_count)
    chunks = [tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)]
    running: List[Tuple[_Chunk, int, int]] = []
    try:
        for chunk in chunks:
            budget = None if point_timeout is None else point_timeout * len(chunk)
            work = functools.partial(_worker_run_chunk, spec, chunk)
            running.append((chunk, *_fork(work, budget)))
        results: List[Tuple[int, PointOutcome]] = []
        # Joined in submission order, so the output never depends on
        # which chunk finishes first.
        while running:
            chunk, pid, read_fd = running.pop(0)
            label = f"sweep chunk n={[pulses for _, pulses in chunk]}"
            results.extend(_join(pid, read_fd, label))
    finally:
        for _chunk, pid, read_fd in running:  # left over only by a failure
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
    return [outcome for _, outcome in results]


__all__ = [
    "PointOutcome",
    "available_cpus",
    "execute_sweep",
    "resolve_jobs",
    "shutdown_worker_pools",
]
