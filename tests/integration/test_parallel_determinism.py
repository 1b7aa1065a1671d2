"""Parallel sweeps must be digest-identical to sequential ones.

The executor's contract (see ``repro.experiments.parallel``) is that
``jobs`` never changes results: every point derives its randomness from
its own config seed, each forked chunk worker builds its trunk from the
bare config, and outcomes are collected in submission order. These
tests hold it to that on the paper's two main topologies, across two
seeds, comparing the byte-level metrics digests. The CI matrix runs
them on Python 3.9 and 3.12, so the guarantee is checked on both
interpreter generations.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import ConfigurationError
from repro.experiments.base import (
    DEFAULT_SEED,
    internet100_config,
    mesh100_config,
    run_sweep,
)
from repro.experiments.parallel import (
    available_cpus,
    execute_sweep,
    resolve_jobs,
)

#: Four points so ``jobs=4`` actually exercises four forked workers.
PULSES = (0, 1, 3, 5)

#: Two seeds: the standard one and an arbitrary 64-bit one.
SEEDS = (DEFAULT_SEED, 16699903411756448033)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "factory", [mesh100_config, internet100_config], ids=["mesh100", "internet100"]
)
def test_parallel_sweep_is_digest_identical_to_sequential(factory, seed):
    config = factory(seed=seed)
    sequential = execute_sweep(config, PULSES, jobs=1)
    parallel = execute_sweep(config, PULSES, jobs=4)
    assert [o.digest for o in sequential] == [o.digest for o in parallel]
    # Digest identity should imply metric identity; check it really does.
    assert sequential == parallel


def test_run_sweep_records_digests():
    series = run_sweep("series", mesh100_config(), (0, 1))
    assert all(point.digest for point in series.points)
    assert [point.pulses for point in series.points] == [0, 1]


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_transport_and_chunking_are_digest_identical(jobs):
    """The chunk geometry may not move a byte: every worker warms its
    points from the config it was forked with, and collection order is
    submission order regardless of chunking (2, 3 or 4 chunks of 2, 2
    or 1 points)."""
    config = mesh100_config(seed=DEFAULT_SEED)
    sequential = execute_sweep(config, PULSES, jobs=1)
    parallel = execute_sweep(config, PULSES, jobs=jobs)
    assert sequential == parallel


def test_resolve_jobs_semantics():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    # jobs=0 means "the CPUs this process may run on" — the affinity
    # mask, not the host's core count, so container CPU limits hold.
    assert resolve_jobs(0) == available_cpus()
    assert 1 <= available_cpus() <= (os.cpu_count() or 1)
    # Only a non-negative int is a worker count: not a bool, a float,
    # or a numeric string.
    for bad in (-1, 2.5, 2.0, True, False, "2", float("nan")):
        with pytest.raises(ConfigurationError, match="jobs must be an integer"):
            resolve_jobs(bad)


def test_a_parallel_sweep_leaves_no_thread_and_no_child(fast_config):
    """Chunk workers are forked per sweep and reaped before it returns:
    afterwards the process is as single-threaded as before, so later
    sequential sweeps still fork their branches."""
    threads = threading.active_count()
    execute_sweep(fast_config, (0, 1, 2), jobs=2)
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
