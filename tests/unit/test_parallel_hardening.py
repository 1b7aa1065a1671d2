"""Unit tests for the sweep executor's pool-failure hardening.

Real worker death (OOM kill, segfault) and wedged workers are
nondeterministic to provoke, so these tests substitute fake pools for
``ProcessPoolExecutor`` in the module namespace: the fakes run chunks
inline (same process, handed the same bare-config spec a spawn worker
would unpickle) while simulating the pool-level failures the executor
must survive — a broken pool with salvageable completed futures, a
chunk that never finishes, and a deterministic episode error that must
*not* be retried. The persistent
pool manager keys warm pools on the executor class, so each fake class
gets its own pools and never aliases the real spawn pools.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import List

import pytest

import repro.experiments.parallel as parallel_mod
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.parallel import (
    PointOutcome,
    _salvage_chunks,
    execute_sweep,
    shutdown_worker_pools,
)


class _InlinePool:
    """Runs submitted chunks synchronously in-process; takes the
    constructor arguments the real pool manager passes."""

    instances: List["_InlinePool"] = []

    def __init__(self, max_workers, mp_context=None):
        self.submitted = 0
        type(self).instances.append(self)

    def submit(self, fn, *args):
        self.submitted += 1
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _BreaksAfterFirstPool(_InlinePool):
    """First instance completes its first submission then breaks every
    later future; subsequent instances behave normally. Models a worker
    dying mid-sweep with completed chunks left to salvage."""

    def submit(self, fn, *args):
        if type(self).instances[0] is self and self.submitted >= 1:
            self.submitted += 1
            future: Future = Future()
            future.set_exception(BrokenProcessPool("worker died"))
            return future
        return super().submit(fn, *args)


class _NeverFinishesPool(_InlinePool):
    """Every future stays pending forever: a wedged worker."""

    def submit(self, fn, *args):
        self.submitted += 1
        return Future()


@pytest.fixture(autouse=True)
def _reset_fakes():
    # Warm pools persist across execute_sweep calls by design; drain the
    # manager so no test inherits (or leaks) a parked fake pool.
    shutdown_worker_pools()
    _InlinePool.instances = []
    _BreaksAfterFirstPool.instances = []
    _NeverFinishesPool.instances = []
    yield
    shutdown_worker_pools()


def test_execute_sweep_validates_retry_and_timeout_arguments(fast_config):
    with pytest.raises(ConfigurationError, match="max_retries"):
        execute_sweep(fast_config, (0, 1), max_retries=-1)
    with pytest.raises(ConfigurationError, match="point_timeout"):
        execute_sweep(fast_config, (0, 1), point_timeout=0.0)
    with pytest.raises(ConfigurationError, match="chunk_size"):
        execute_sweep(fast_config, (0, 1), jobs=2, chunk_size=0)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "counts", [[2.7], [1, -1], ["3"], [float("nan")], [None]], ids=repr
)
def test_pulse_counts_are_validated_before_any_work(
    fast_config, monkeypatch, counts, jobs
):
    def no_work(spec, tasks):
        raise AssertionError("a point ran before the counts were checked")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(parallel_mod, "_worker_run_chunk", no_work)
    with pytest.raises(ConfigurationError, match="non-negative integers"):
        execute_sweep(fast_config, counts, jobs=jobs)
    assert _InlinePool.instances == []


def test_integral_float_counts_are_counts(fast_config):
    outcomes = execute_sweep(fast_config, [1.0, 0])
    assert [o.pulses for o in outcomes] == [1, 0]
    assert all(isinstance(o.pulses, int) for o in outcomes)


def test_broken_pool_salvages_completed_points_and_retries(
    fast_config, monkeypatch
):
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _BreaksAfterFirstPool)
    outcomes = execute_sweep(
        fast_config, (0, 1, 2), jobs=2, max_retries=2, chunk_size=1
    )
    assert [o.pulses for o in outcomes] == [0, 1, 2]
    # Attempt 1 completed one chunk before breaking and was discarded;
    # attempt 2 ran the two missing chunks on a fresh pool.
    pools = _BreaksAfterFirstPool.instances
    assert len(pools) == 2
    assert pools[1].submitted == 2


def test_broken_pool_results_match_sequential(fast_config, monkeypatch):
    sequential = execute_sweep(fast_config, (0, 1, 2), jobs=1)
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _BreaksAfterFirstPool)
    recovered = execute_sweep(fast_config, (0, 1, 2), jobs=2, chunk_size=1)
    assert [o.digest for o in recovered] == [o.digest for o in sequential]


def test_healthy_pool_is_reused_across_sweeps(fast_config, monkeypatch):
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _InlinePool)
    first = execute_sweep(fast_config, (0, 1, 2), jobs=2)
    second = execute_sweep(fast_config, (0, 1, 2), jobs=2)
    assert [o.digest for o in first] == [o.digest for o in second]
    # The sweep released its healthy pool to the warm set and the second
    # sweep acquired the same instance instead of spawning another.
    assert len(_InlinePool.instances) == 1


def test_chunked_submission_batches_points(fast_config, monkeypatch):
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _InlinePool)
    outcomes = execute_sweep(fast_config, (0, 1, 2, 3), jobs=2, chunk_size=2)
    assert [o.pulses for o in outcomes] == [0, 1, 2, 3]
    assert _InlinePool.instances[0].submitted == 2


def test_exhausted_retries_raise_with_missing_points(fast_config, monkeypatch):
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _NeverFinishesPool)
    with pytest.raises(SimulationError, match=r"sweep lost 3 point\(s\)"):
        execute_sweep(
            fast_config,
            (0, 1, 2),
            jobs=2,
            point_timeout=0.05,
            max_retries=1,
        )
    # One fresh pool per attempt: a timed-out pool is never reused.
    assert len(_NeverFinishesPool.instances) == 2


def test_deterministic_episode_errors_are_not_retried(fast_config, monkeypatch):
    calls = []

    def boom(spec, tasks):
        calls.append(tasks)
        raise SimulationError("invariant violated")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(parallel_mod, "_worker_run_chunk", boom)
    with pytest.raises(SimulationError, match="invariant violated"):
        execute_sweep(fast_config, (0, 1), jobs=2, max_retries=5)
    # The error propagated from the first chunk of the first attempt:
    # rerunning the same seed would reproduce it, so no retry happened.
    assert len(_InlinePool.instances) == 1


def _outcome(pulses: int, digest: str) -> PointOutcome:
    return PointOutcome(
        pulses=pulses,
        convergence_time=float(pulses),
        message_count=pulses,
        suppressions=0,
        peak_damped_links=0,
        secondary_charges=0,
        warmup_convergence=0.5,
        digest=digest,
    )


def test_salvage_harvests_only_clean_chunks():
    good: Future = Future()
    good.set_result([(0, _outcome(1, "d")), (1, _outcome(2, "f"))])
    pending: Future = Future()
    broken: Future = Future()
    broken.set_exception(BrokenProcessPool("dead"))
    already = _outcome(0, "e")
    results = {3: already}
    _salvage_chunks(
        [
            (((0, 1), (1, 2)), good),
            (((2, 3),), pending),
            (((4, 5),), broken),
        ],
        results,
    )
    assert results == {0: _outcome(1, "d"), 1: _outcome(2, "f"), 3: already}
