"""Simulator performance micro-benchmarks.

Unlike the figure benchmarks (one full run each), these measure the hot
paths with repeated rounds so regressions in the substrate show up as
timing changes: event-loop throughput, schedule/cancel churn, penalty
arithmetic, decision process, a complete small episode, warm-state
snapshot capture/restore, and the sequential-vs-parallel fig8 sweep.

Every measurement is also exported as machine-readable JSON to
``benchmarks/results/perf.json`` so the perf trajectory can be tracked
across PRs and hosts (the file records the interpreter and CPU count —
parallel numbers only beat sequential ones on multi-core hosts).
"""

import json
import pathlib
import platform
import sys
import time

import pytest

from repro.bgp.attrs import Route
from repro.bgp.decision import select_best
from repro.core.params import CISCO_DEFAULTS, UpdateKind
from repro.core.penalty import PenaltyState
from repro.experiments.base import DEFAULT_SEED, mesh100_config, small_mesh_config
from repro.experiments.parallel import (
    available_cpus,
    execute_sweep,
    resolve_chunk_size,
    shutdown_worker_pools,
)
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.trace import MemorySink, NullSink, Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, WarmStateSnapshot

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
PERF_JSON = RESULTS_DIR / "perf.json"

#: Timings accumulated by the tests in this module, flushed to
#: ``perf.json`` once the module finishes.
_PERF = {}


def _record(name: str, seconds, **extra) -> None:
    entry = {"seconds": round(float(seconds), 6)}
    entry.update(extra)
    _PERF[name] = entry


def _record_benchmark(name: str, benchmark, **extra) -> None:
    """Pull the min-of-rounds out of pytest-benchmark's stats."""
    _record(name, benchmark.stats.stats.min, **extra)


@pytest.fixture(scope="module", autouse=True)
def _export_perf_json():
    yield
    if not _PERF:
        return
    import os

    # Merge with entries exported by other benchmark modules (e.g. the
    # lint-engine benchmarks) instead of clobbering them.
    merged = {}
    if PERF_JSON.exists():
        try:
            merged = json.loads(PERF_JSON.read_text(encoding="utf-8")).get(
                "benchmarks", {}
            )
        except ValueError:
            merged = {}
    merged.update(_PERF)
    payload = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            # The affinity-aware count parallel sweeps actually get —
            # what compare_perf's host guard and speedup gate key on.
            "available_cpus": available_cpus(),
            "platform": sys.platform,
        },
        "benchmarks": dict(sorted(merged.items())),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    PERF_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def test_perf_engine_event_throughput(benchmark):
    """Schedule and drain 10k events."""

    def run() -> int:
        engine = Engine()
        for i in range(10_000):
            engine.schedule(float(i % 100), lambda: None)
        return engine.run()

    executed = benchmark(run)
    assert executed == 10_000
    _record_benchmark("engine_event_throughput_10k", benchmark)


def test_perf_schedule_cancel_churn(benchmark):
    """10k schedule-then-cancel cycles over 100 live events.

    A worst case, not a workload: 99 % of what is scheduled here is
    cancelled, where the four ``BENCHMARK.json`` workloads cancel 0–8 %
    (MRAI timers re-arm only after they fire; only reuse timers are
    rescheduled while pending). Cancellation is lazy and nothing
    compacts the heap, so this measures 10k pushes onto a heap that
    keeps its dead entries plus the drain that pops and discards every
    one of them — the price of not counting cancellations per event.
    """

    def run() -> int:
        engine = Engine()
        for i in range(100):
            engine.schedule(1_000.0 + i, lambda: None)
        for i in range(10_000):
            engine.schedule(float(i % 97), lambda: None).cancel()
        assert engine.pending_count == 100
        return engine.run()

    executed = benchmark(run)
    assert executed == 100
    _record_benchmark("engine_schedule_cancel_churn_10k", benchmark)


def _timer_churn(audited: bool) -> int:
    """Arm/cancel-heavy Timer workload: 200 handles, 10k reschedule or
    cancel operations, then a drain that fires the survivors. Every
    reschedule of an armed handle is a cancel+arm pair, so this hammers
    exactly the transitions the timer audit hooks."""
    engine = Engine()
    audit = engine.enable_timer_audit() if audited else None
    timers = [
        Timer(engine, lambda: None, name=f"t{i}", actor=f"r{i % 10}", tag="bench")
        for i in range(200)
    ]
    for i in range(10_000):
        timer = timers[i % 200]
        if i % 3 == 2:
            timer.cancel()
        else:
            timer.reschedule(1.0 + float(i % 7))
    executed = engine.run()
    if audit is not None:
        assert audit.verify() == []
    return executed


def test_perf_timer_churn_audit_cost():
    """Timer churn with the audit off and on, worst case.

    The disabled path (the default: one attribute read and a None test
    per transition) is recorded as ``timer_churn_10k`` and gated across
    PRs by the perf-baseline comparison, like every hot-path number —
    that is where a hook that stops being free would show up. The
    enabled path pays real bookkeeping per transition, and this
    workload is nothing *but* transitions, so its cost is recorded with
    a generous guard rather than the 5% gate (which lives at episode
    level below, where the audit's cost has to vanish).
    """
    rounds = 5
    plain_s = None
    audited_s = None
    for _ in range(rounds):
        plain = _timed(lambda: _timer_churn(audited=False))
        audited = _timed(lambda: _timer_churn(audited=True))
        plain_s = plain if plain_s is None else min(plain_s, plain)
        audited_s = audited if audited_s is None else min(audited_s, audited)

    _record("timer_churn_10k", plain_s)
    _record(
        "timer_churn_10k_audited",
        audited_s,
        overhead_pct=round((audited_s / plain_s - 1.0) * 100, 2),
    )
    # Even on pure churn the audit is a dict probe and a counter per
    # transition; 2x is far above its real cost but below any bug that
    # would make auditing a long sweep unusable.
    assert audited_s < plain_s * 2.0 + 0.001


def test_perf_timer_audit_episode_overhead():
    """An audited episode must time like a plain one — the tracer gate.

    On a real workload timer transitions are a sliver of the event
    count, so enabling the audit (let alone leaving it disabled) must
    disappear into noise. Rounds alternate between the two modes so
    host-load drift hits both equally; min-of-rounds plus the 5%
    relative + 1ms absolute guard matches the trace no-op gate.
    """

    def audited_episode():
        scenario = Scenario(small_mesh_config(seed=11))
        audit = scenario.engine.enable_timer_audit()
        scenario.warm_up()
        result = scenario.run(PulseSchedule.regular(2, 60.0))
        assert audit.verify() == []
        return result

    _small_episode()  # warm the topology cache outside the timed rounds
    rounds = 9
    plain_s = None
    audited_s = None
    for _ in range(rounds):
        plain = _timed(_small_episode)
        audited = _timed(audited_episode)
        plain_s = plain if plain_s is None else min(plain_s, plain)
        audited_s = audited if audited_s is None else min(audited_s, audited)

    _record("timer_audit_episode_plain", plain_s)
    _record(
        "timer_audit_episode_audited",
        audited_s,
        overhead_pct=round((audited_s / plain_s - 1.0) * 100, 2),
    )
    assert audited_s < plain_s * 1.05 + 0.001


def test_perf_penalty_charging(benchmark):
    """10k charge/decay cycles on one penalty state."""

    def run() -> float:
        state = PenaltyState(CISCO_DEFAULTS)
        value = 0.0
        for i in range(10_000):
            value = state.charge(float(i), UpdateKind.ATTRIBUTE_CHANGE)
        return value

    value = benchmark(run)
    assert 0.0 < value <= CISCO_DEFAULTS.penalty_ceiling
    _record_benchmark("penalty_charging_10k", benchmark)


def test_perf_decision_process(benchmark):
    """Best-path selection over 16 candidates, 10k times."""
    candidates = [
        (
            f"peer{i:02d}",
            Route(
                prefix="p0",
                as_path=(f"peer{i:02d}",) + tuple(f"x{j}" for j in range(i % 5)) + ("o",),
                learned_from=f"peer{i:02d}",
            ),
        )
        for i in range(16)
    ]

    def pref(peer: str, route: Route) -> int:
        del peer, route
        return 100

    def run():
        best = None
        for _ in range(10_000):
            best = select_best(candidates, pref)
        return best

    best = benchmark(run)
    assert best is not None
    assert best[0] == "peer00"
    _record_benchmark("decision_process_16x10k", benchmark)


def test_perf_full_small_episode(benchmark):
    """Complete build/warm-up/episode on a 5x5 damping mesh."""

    def run():
        scenario = Scenario(small_mesh_config(seed=11))
        scenario.warm_up()
        return scenario.run(PulseSchedule.regular(1, 60.0))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.message_count > 0
    _record_benchmark("full_small_episode", benchmark)


def test_perf_snapshot_capture_and_restore():
    """Warm-state checkpoint cost on the paper's mesh100 topology, and
    why sweeps do not use it.

    Restoring materialises a warmed scenario faster than building and
    warming one (``restore_speedup``), but the episode that then runs on
    the unpickled objects is slower than on freshly built ones
    (``slowdown_vs_fresh``), by more than the materialise saving. The
    episode pair alternates restored/fresh and takes min-of-rounds CPU
    time so host load hits both sides equally.
    """
    config = mesh100_config(seed=DEFAULT_SEED)

    start = time.perf_counter()
    snapshot = WarmStateSnapshot.capture(config)
    capture_s = time.perf_counter() - start

    restore_s = min(_timed(snapshot.restore) for _ in range(3))

    def fresh_warmup(cfg=config):
        scenario = Scenario(cfg)
        scenario.warm_up()
        return scenario

    warmup_s = min(_timed(fresh_warmup) for _ in range(2))

    _record("snapshot_capture_mesh100", capture_s, blob_bytes=snapshot.size_bytes)
    _record("snapshot_restore_mesh100", restore_s)
    _record(
        "fresh_warmup_mesh100",
        warmup_s,
        restore_speedup=round(warmup_s / restore_s, 2),
    )
    # Restoring must not cost meaningfully more than the warm-up it
    # replaces (generous factor: single-digit-millisecond timings on a
    # shared host are noisy).
    assert restore_s < warmup_s * 1.5

    nodamp = mesh100_config(damping=None, seed=DEFAULT_SEED)
    nodamp_snapshot = WarmStateSnapshot.capture(nodamp)
    schedule = PulseSchedule.regular(10, 60.0)

    def episode_cpu_s(scenario) -> float:
        start = time.process_time()
        scenario.run(schedule)
        return time.process_time() - start

    restored_s = fresh_s = float("inf")
    for _ in range(5):
        restored_s = min(restored_s, episode_cpu_s(nodamp_snapshot.restore()))
        fresh_s = min(fresh_s, episode_cpu_s(fresh_warmup(nodamp)))
    _record(
        "snapshot_restored_episode_mesh100",
        restored_s,
        fresh_seconds=round(fresh_s, 6),
        pulses=10,
        rounds=5,
        clock="process_time",
        slowdown_vs_fresh=round(restored_s / fresh_s, 2),
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


#: Points of the fig8 acceptance-criterion sweep (the paper's x-axis).
_FIG8_PULSES = tuple(range(0, 11))


def _fig8_sweep(jobs: int, rounds: int = 1):
    """The acceptance-criterion workload: full-damping mesh, n = 0..10.

    Returns (best-of-``rounds`` wall-clock seconds, outcomes).
    """
    config = mesh100_config(seed=DEFAULT_SEED)
    best = None
    outcomes = None
    for _ in range(rounds):
        start = time.perf_counter()
        outcomes = execute_sweep(config, _FIG8_PULSES, jobs=jobs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, outcomes


def test_perf_fig8_sweep_sequential_vs_parallel():
    """Wall-clock for the fig8 full-damping mesh sweep, sequential
    against a warm spawn pool. Both build and warm a fresh scenario per
    point and must agree digest-for-digest.

    The parallel round is timed with the pool already warm (persistent
    pools are the executor's steady state — every sweep after a
    process's first reuses workers), and both sides take min-of-rounds
    so host-load noise hits them equally. On a host with >= 2 available
    CPUs the parallel sweep must be at least as fast as sequential. On a
    single-core host the requirement is physically unsatisfiable (spawn
    workers time-slice one core and pay IPC on top), so the gate skips
    with that reason; the recorded ``cpu_count`` lets compare_perf refuse
    cross-host comparisons of the number.
    """
    par_jobs = 2 if available_cpus() < 4 else 4
    chunk = resolve_chunk_size(None, len(_FIG8_PULSES), par_jobs)

    seq_s, seq = _fig8_sweep(jobs=1, rounds=2)
    _fig8_sweep(jobs=par_jobs)  # spawn + warm the pool
    par_s, par = _fig8_sweep(jobs=par_jobs, rounds=2)

    assert [o.digest for o in seq] == [o.digest for o in par]

    _record("fig8_sweep_fresh_per_point", seq_s, points=len(_FIG8_PULSES))
    _record(
        "fig8_sweep_parallel",
        par_s,
        points=len(_FIG8_PULSES),
        jobs=par_jobs,
        cpu_count=available_cpus(),
        start_method="spawn",
        chunk_size=chunk,
        speedup_vs_sequential=round(seq_s / par_s, 2),
    )
    if available_cpus() < 2:
        pytest.skip(
            f"parallel speedup gate needs >= 2 available CPUs, host has "
            f"{available_cpus()}: jobs={par_jobs} spawn workers time-slice "
            f"one core, so parallel >= sequential cannot hold (numbers "
            f"recorded, not gated)"
        )
    assert par_s <= seq_s, (
        f"jobs={par_jobs} sweep took {par_s:.2f}s vs {seq_s:.2f}s "
        f"sequential on {available_cpus()} CPUs — the parallel executor "
        f"is losing to its own sequential path"
    )


def test_perf_warm_pool_amortises_spawn():
    """A second sweep on an already-warm pool must not pay spawn again.

    The persistent pool manager is what turns ``jobs=N`` from a
    per-sweep interpreter-start tax into a one-off: the first parallel
    sweep spawns workers, every later one reuses them. This records the
    cold/warm split so the pool manager's value is visible in the perf
    trajectory (and its loss would show as warm_s climbing to cold_s).
    """
    shutdown_worker_pools()
    config = mesh100_config(seed=DEFAULT_SEED)
    pulses = (0, 1, 2, 3)

    cold_s = _timed(lambda: execute_sweep(config, pulses, jobs=2))
    warm_s = min(
        _timed(lambda: execute_sweep(config, pulses, jobs=2)) for _ in range(2)
    )

    _record(
        "parallel_pool_cold_vs_warm",
        warm_s,
        cold_seconds=round(cold_s, 6),
        cpu_count=available_cpus(),
        jobs=2,
        start_method="spawn",
    )
    # The warm sweep skips worker spawn + import entirely; it must never
    # be slower than the cold one beyond timing noise.
    assert warm_s <= cold_s * 1.10 + 0.05


def _small_episode(tracer=None):
    scenario = Scenario(small_mesh_config(seed=11))
    scenario.warm_up()
    return scenario.run(PulseSchedule.regular(2, 60.0), tracer=tracer)


def test_perf_trace_noop_overhead():
    """A disabled tracer must be free on the hot path.

    Attaching ``Tracer(NullSink())`` is a complete no-op: no engine
    observer is subscribed and no per-router hook fires, so
    the traced and untraced episode must time identically to within
    noise. Rounds alternate between the two modes so host-load drift
    hits both equally; the 5% guard is the acceptance criterion, with
    min-of-rounds keeping it robust on shared runners.
    """
    _small_episode()  # warm the topology cache outside the timed rounds
    rounds = 9
    untraced_s = None
    noop_s = None
    for _ in range(rounds):
        plain = _timed(_small_episode)
        noop = _timed(lambda: _small_episode(tracer=Tracer(NullSink())))
        untraced_s = plain if untraced_s is None else min(untraced_s, plain)
        noop_s = noop if noop_s is None else min(noop_s, noop)

    _record("trace_episode_untraced", untraced_s)
    _record(
        "trace_episode_noop_sink",
        noop_s,
        overhead_pct=round((noop_s / untraced_s - 1.0) * 100, 2),
    )
    # 5% relative plus 1ms absolute: the episodes run identical code, so
    # anything beyond scheduler noise on a sub-40ms workload means the
    # disabled tracer picked up real instrumentation cost.
    assert noop_s < untraced_s * 1.05 + 0.001


def test_perf_trace_full_collection():
    """Cost of full causal tracing on a small episode.

    Tracing is an observability feature, not a hot-path default, so the
    cost is recorded rather than gated — but it should stay within a
    small multiple of the untraced episode (generous guard below).
    """
    untraced_s = min(_timed(_small_episode) for _ in range(3))

    best = None
    records = 0
    for _ in range(3):
        tracer = Tracer(MemorySink())
        elapsed = _timed(lambda: _small_episode(tracer=tracer))
        records = len(tracer.records)
        best = elapsed if best is None else min(best, elapsed)
        tracer.close()

    _record(
        "trace_episode_memory_sink",
        best,
        records=records,
        overhead_vs_untraced=round(best / untraced_s, 2),
    )
    assert records > 0
    # Full tracing allocates one record per protocol action; 3x the
    # untraced episode is far above its real cost but below any bug
    # that would make tracing unusable.
    assert best < untraced_s * 3.0
