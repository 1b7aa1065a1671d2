"""Unit tests for how the sweep executor fails.

With ``jobs > 1`` every chunk of counts runs in a child forked from the
caller. These tests break real forked chunks at ``jobs=2``: an episode
error raised inside a chunk, a chunk killed outright, and a chunk that
runs past its ``point_timeout`` budget. Each must surface in the caller
as one structured error, and leave no child process and no extra
thread behind. Argument validation is checked here too: nothing may
run before a bad count, ``jobs`` or ``point_timeout`` is rejected.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time

import pytest

import repro.analysis.invariants as invariants
import repro.experiments.parallel as parallel_mod
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.parallel import execute_sweep
from repro.sim.timers import TimerAudit, TimerAuditViolation

#: Two chunks of two at ``jobs=2``: ``[0, 1]`` and ``[2, 3]``, each a
#: trunk with one branch.
COUNTS = (0, 1, 2, 3)


@pytest.fixture
def clean_exit():
    """The test fails rather than hangs if it is not done within a
    minute, and its sweeps leave the thread count as they found it and
    no child process, reaped or not, behind."""

    def expire(signum, frame):
        raise TimeoutError("the sweep did not return within 60 s")

    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child(parent: int) -> bool:
    return os.getpid() != parent


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_point_timeout_must_be_finite_and_positive(fast_config, timeout):
    with pytest.raises(ConfigurationError, match="point_timeout"):
        execute_sweep(fast_config, (0, 1), jobs=2, point_timeout=timeout)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "counts", [[2.7], [1, -1], ["3"], [float("nan")], [None]], ids=repr
)
def test_pulse_counts_are_validated_before_any_work(
    fast_config, monkeypatch, counts, jobs
):
    def no_work(*args):
        raise AssertionError("a point ran before the counts were checked")

    monkeypatch.setattr(parallel_mod, "_worker_run_chunk", no_work)
    monkeypatch.setattr(parallel_mod, "_fork", no_work)
    with pytest.raises(ConfigurationError, match="non-negative integers"):
        execute_sweep(fast_config, counts, jobs=jobs)


def test_integral_float_counts_are_counts(fast_config):
    outcomes = execute_sweep(fast_config, [1.0, 0])
    assert [o.pulses for o in outcomes] == [1, 0]
    assert all(isinstance(o.pulses, int) for o in outcomes)


def test_chunked_submission_batches_points(
    fast_config, monkeypatch, tmp_path, clean_exit
):
    """``jobs=2`` cuts four counts into two contiguous chunks, and each
    forked worker builds one trunk for its two points."""
    log = tmp_path / "trunks.log"
    log.write_text("")
    warmed = parallel_mod.warmed_scenario

    def counting(config, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return warmed(config, **kwargs)

    monkeypatch.setattr(parallel_mod, "warmed_scenario", counting)
    outcomes = execute_sweep(fast_config, COUNTS, jobs=2)
    assert [o.pulses for o in outcomes] == list(COUNTS)
    trunk_pids = log.read_text(encoding="utf-8").splitlines()
    assert len(trunk_pids) == len(set(trunk_pids)) == 2
    assert str(os.getpid()) not in trunk_pids


def test_audit_violation_in_a_chunk_reraises_with_its_type_and_message(
    fast_config, monkeypatch, clean_exit
):
    parent = os.getpid()
    verify = TimerAudit.verify
    violation = TimerAuditViolation("leak", "mrai:r1", 12.5, "planted")

    def planted(self):
        return [violation] if _in_child(parent) else verify(self)

    monkeypatch.setattr(TimerAudit, "verify", planted)
    with pytest.raises(SimulationError) as raised:
        execute_sweep(fast_config, COUNTS, jobs=2, audit_timers=True)
    assert type(raised.value) is SimulationError
    assert str(raised.value) == (
        "timer audit found 1 violation(s): leak @ 12.5s timer mrai:r1"
    )


def test_invariant_break_in_a_chunk_reraises_with_its_type_and_message(
    fast_config, monkeypatch, clean_exit
):
    parent = os.getpid()
    oracle = invariants.check_converged_invariants

    def broken(scenario):
        report = oracle(scenario)
        if _in_child(parent):
            report.violations.append(
                invariants.InvariantViolation("r1", "stable-state", "planted")
            )
        return report

    monkeypatch.setattr(invariants, "check_converged_invariants", broken)
    with pytest.raises(SimulationError) as raised:
        execute_sweep(fast_config, COUNTS, jobs=2, check_invariants=True)
    assert type(raised.value) is SimulationError
    assert str(raised.value) == (
        "1 protocol invariant violation(s): r1: stable-state — planted"
    )


def test_deterministic_episode_errors_are_not_retried(
    fast_config, monkeypatch, tmp_path, clean_exit
):
    """A failing chunk fails the sweep at once: rerunning the same seed
    would reproduce the error, so no chunk runs twice."""
    log = tmp_path / "chunks.log"
    log.write_text("")

    def boom(spec, tasks):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{[pulses for _, pulses in tasks]}\n")
        raise SimulationError("invariant violated")

    monkeypatch.setattr(parallel_mod, "_worker_run_chunk", boom)
    with pytest.raises(SimulationError, match="^invariant violated$"):
        execute_sweep(fast_config, COUNTS, jobs=2)
    runs = log.read_text(encoding="utf-8").splitlines()
    assert runs.count("[0, 1]") == 1
    assert runs.count("[2, 3]") <= 1


def test_a_killed_chunk_names_its_counts_and_the_others_are_reaped(
    fast_config, monkeypatch, clean_exit
):
    run_chunk = parallel_mod._worker_run_chunk

    def killed_first(spec, tasks):
        if tasks[0] == (0, 0):
            os.kill(os.getpid(), signal.SIGKILL)
        return run_chunk(spec, tasks)

    monkeypatch.setattr(parallel_mod, "_worker_run_chunk", killed_first)
    with pytest.raises(SimulationError) as raised:
        execute_sweep(fast_config, COUNTS, jobs=2)
    assert str(raised.value) == (
        "sweep chunk n=[0, 1] exited without a result (killed by SIGKILL)"
    )


def test_point_timeout_kills_the_chunk_and_its_branch_by_sigalrm(
    fast_config, monkeypatch, clean_exit
):
    """The branch of ``n = 0`` never finishes. The chunk's budget must
    end it despite the test process's own SIGALRM handler: the child
    restores the default action, and the branch inherits the chunk's
    deadline, so its end of the chunk's pipe closes with the chunk."""
    finish = parallel_mod._finish_point

    def wedged(spec, scenario, episode, tracer, indices):
        if episode.schedule.pulse_count == 0:
            time.sleep(60)
        return finish(spec, scenario, episode, tracer, indices)

    def handler(signum, frame):
        raise AssertionError("the caller's SIGALRM handler ran")

    monkeypatch.setattr(parallel_mod, "_finish_point", wedged)
    previous = signal.signal(signal.SIGALRM, handler)
    try:
        start = time.monotonic()
        with pytest.raises(SimulationError) as raised:
            execute_sweep(fast_config, COUNTS, jobs=2, point_timeout=1.0)
        elapsed = time.monotonic() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert str(raised.value) == (
        "sweep chunk n=[0, 1] exited without a result (killed by SIGALRM)"
    )
    assert elapsed < 30


@pytest.mark.parametrize("timeout", [600.0, 1e12])
def test_a_generous_point_timeout_changes_nothing(fast_config, clean_exit, timeout):
    """A budget past what a timer can hold (~292 years) is armed at
    that cap rather than failing the chunk."""
    sequential = execute_sweep(fast_config, COUNTS, jobs=1)
    bounded = execute_sweep(fast_config, COUNTS, jobs=2, point_timeout=timeout)
    assert bounded == sequential
