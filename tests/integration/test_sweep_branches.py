"""Forked sweep branches against per-point replay.

``execute_sweep`` runs one trunk per chunk and forks every shorter
pulse train off it (``repro.experiments.parallel``). These tests hold
the branches to the reference, ``_run_point``, which builds, warms and
runs a fresh scenario for each point: every ``PointOutcome`` field and
every trace file byte must agree, over the configurations whose
episodes differ most (filters, policies, rate limiting, partial and
mixed deployments, a fault plan, the schedule-race detector), with the
converged-state oracle, the timer audit and tracing all on, and with
unsorted, repeated counts. They also pin what happens when a branch
fails or dies.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
from pathlib import Path

import pytest

import repro.analysis.invariants as invariants
import repro.experiments.parallel as parallel_mod
from repro.errors import SimulationError
from repro.experiments.ablations import mixed_vendor_config, wrate_config
from repro.experiments.base import internet208_config, mesh100_config
from repro.experiments.parallel import _SweepSpec, execute_sweep, shutdown_worker_pools
from repro.faults import FaultPlan
from repro.sim.timers import TimerAudit, TimerAuditViolation
from repro.topology.mesh import mesh_topology
from repro.workload.scenarios import ScenarioConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Unsorted, with a repeat: branches run in ascending order and a
#: repeated count shares one branch but writes one trace file per index.
COUNTS = (3, 0, 2, 2, 1)


def _chaos_config() -> ScenarioConfig:
    plan = FaultPlan.load(str(EXAMPLES / "faults_demo.json"))
    return dataclasses.replace(
        mesh100_config(), topology=mesh_topology(5, 5), faults=plan
    )


CONFIGS = {
    "damped": mesh100_config,
    "undamped": lambda: mesh100_config(damping=None),
    "rcn": lambda: mesh100_config(rcn=True),
    "selective": lambda: mesh100_config(selective=True),
    "no-valley": lambda: internet208_config(use_no_valley=True),
    "wrate": lambda: wrate_config(True),
    "mixed-vendor": mixed_vendor_config,
    "half-deployment": lambda: mesh100_config(damping_fraction=0.5),
    "chaos": _chaos_config,
    "schedule-ties": lambda: dataclasses.replace(
        mesh100_config(), detect_schedule_ties=True
    ),
}


@pytest.fixture(autouse=True)
def _single_threaded():
    # A warm pool's threads would make the executor fall back to
    # replay, and these tests would compare the reference with itself.
    shutdown_worker_pools()
    assert parallel_mod._can_fork()


def _trace_files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_branches_match_per_point_replay(name, tmp_path):
    config = CONFIGS[name]()
    branched_dir, replay_dir = tmp_path / "branched", tmp_path / "replay"
    branched = execute_sweep(
        config,
        COUNTS,
        check_invariants=True,
        audit_timers=True,
        trace_dir=str(branched_dir),
    )
    replay_dir.mkdir()
    spec = _SweepSpec(config, 60.0, True, str(replay_dir), True)
    replayed = [
        parallel_mod._run_point(spec, index, pulses)
        for index, pulses in enumerate(COUNTS)
    ]
    assert [o.pulses for o in branched] == list(COUNTS)
    assert branched == replayed
    assert all(o.trace_digest for o in branched)
    files = _trace_files(branched_dir)
    assert len(files) == len(COUNTS)
    assert files == _trace_files(replay_dir)


def test_one_trunk_per_sequential_sweep(fast_config, monkeypatch):
    built = []
    warmed = parallel_mod.warmed_scenario

    def counting(config, **kwargs):
        built.append(config)
        return warmed(config, **kwargs)

    monkeypatch.setattr(parallel_mod, "warmed_scenario", counting)
    outcomes = execute_sweep(fast_config, (2, 0, 1))
    assert [o.pulses for o in outcomes] == [2, 0, 1]
    assert len(built) == 1


# ----------------------------------------------------------------------
# failing and dying branches
# ----------------------------------------------------------------------


@pytest.fixture
def forked(monkeypatch):
    """The pids of the branches forked during the test, which fails
    rather than hangs if it is not done within a minute."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def expire(signum, frame):
        raise TimeoutError("the sweep did not return within 60 s")

    monkeypatch.setattr(os, "fork", recording)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pids) -> None:
    """Every branch was waited for: none is left running or a zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _in_child(parent: int) -> bool:
    return os.getpid() != parent


def test_a_second_thread_makes_the_sweep_replay_instead_of_fork(
    fast_config, forked
):
    branched = execute_sweep(fast_config, (2, 0, 1))
    assert len(forked) == 2
    forked.clear()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert not parallel_mod._can_fork()
        replayed = execute_sweep(fast_config, (2, 0, 1))
    finally:
        release.set()
        waiter.join()
    assert forked == []
    assert replayed == branched


def test_audit_violation_in_a_branch_reraises_in_the_parent(
    fast_config, monkeypatch, forked
):
    parent = os.getpid()
    verify = TimerAudit.verify
    violation = TimerAuditViolation("leak", "mrai:r1", 12.5, "planted")

    def planted(self):
        return [violation] if _in_child(parent) else verify(self)

    monkeypatch.setattr(TimerAudit, "verify", planted)
    with pytest.raises(SimulationError) as raised:
        execute_sweep(fast_config, (0, 1), audit_timers=True)
    assert type(raised.value) is SimulationError
    assert str(raised.value) == (
        "timer audit found 1 violation(s): leak @ 12.5s timer mrai:r1"
    )
    _assert_reaped(forked)


def test_invariant_break_in_a_branch_reraises_in_the_parent(
    fast_config, monkeypatch, forked
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
        execute_sweep(fast_config, (1, 2), check_invariants=True)
    assert type(raised.value) is SimulationError
    assert str(raised.value) == (
        "1 protocol invariant violation(s): r1: stable-state — planted"
    )
    _assert_reaped(forked)


def test_unpicklable_branch_error_arrives_as_simulation_error(
    fast_config, monkeypatch, forked
):
    parent = os.getpid()
    finish = parallel_mod._finish_point

    class Local(Exception):  # a local class does not pickle
        pass

    def failing(*args):
        if _in_child(parent):
            raise Local("went wrong")
        return finish(*args)

    monkeypatch.setattr(parallel_mod, "_finish_point", failing)
    with pytest.raises(SimulationError, match="^Local: went wrong$"):
        execute_sweep(fast_config, (0, 1))
    _assert_reaped(forked)


@pytest.mark.parametrize(
    "die, status",
    [
        (lambda: os._exit(1), "exit status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
    ],
    ids=["exit", "sigkill"],
)
def test_a_branch_that_dies_without_answering_names_its_pulse_count(
    fast_config, monkeypatch, forked, die, status
):
    parent = os.getpid()
    finish = parallel_mod._finish_point

    def dying(*args):
        if _in_child(parent):
            die()
        return finish(*args)

    monkeypatch.setattr(parallel_mod, "_finish_point", dying)
    with pytest.raises(SimulationError) as raised:
        execute_sweep(fast_config, (2, 1))
    message = str(raised.value)
    assert "sweep branch n=1 exited without a result" in message
    assert status in message
    _assert_reaped(forked)
