"""Parallel sweeps must be digest-identical to sequential ones.

The executor's contract (see ``repro.experiments.parallel``) is that
``jobs`` never changes results: every point derives its randomness from
its own config seed, workers are spawn-context (no inherited state), and
outcomes are collected in submission order. These tests hold it to that
on the paper's two main topologies, across two seeds, comparing the
byte-level metrics digests. The CI matrix runs them on Python 3.9 and
3.12, so the guarantee is checked on both interpreter generations.
"""

from __future__ import annotations

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
    resolve_chunk_size,
    resolve_jobs,
)

#: Four points so ``jobs=4`` actually exercises four spawn workers.
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


@pytest.mark.parametrize("chunk_size", [1, 3])
def test_transport_and_chunking_are_digest_identical(chunk_size):
    """The chunk geometry may not move a byte: every worker warms its
    points from the shipped config, and collection order is submission
    order regardless of chunking."""
    config = mesh100_config(seed=DEFAULT_SEED)
    sequential = execute_sweep(config, PULSES, jobs=1)
    parallel = execute_sweep(config, PULSES, jobs=2, chunk_size=chunk_size)
    assert sequential == parallel


def test_resolve_jobs_semantics():
    import os

    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    # jobs=0 means "the CPUs this process may run on" — the affinity
    # mask, not the host's core count, so container CPU limits hold.
    assert resolve_jobs(0) == available_cpus()
    assert 1 <= available_cpus() <= (os.cpu_count() or 1)
    with pytest.raises(ConfigurationError):
        resolve_jobs(-1)


def test_resolve_chunk_size_semantics():
    # Explicit sizes pass through; zero/negative are rejected loudly.
    assert resolve_chunk_size(3, 10, 2) == 3
    with pytest.raises(ConfigurationError):
        resolve_chunk_size(0, 10, 2)
    # Auto mode: sequential keeps one chunk; parallel targets a few
    # chunks per worker and never rounds below one point per chunk.
    assert resolve_chunk_size(None, 5, 1) == 5
    assert resolve_chunk_size(None, 4, 2) == 1
    assert resolve_chunk_size(None, 100, 4) == 7
    assert resolve_chunk_size(None, 1, 8) == 1
