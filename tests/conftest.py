"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
from typing import Dict, Tuple

import pytest

from repro.core.params import CISCO_DEFAULTS
from repro.experiments.base import ExperimentResult, RunOptions, SeriesCache, Sweep
from repro.experiments.claims import CLAIMS_BY_ID, claims_for
from repro.experiments.parallel import shutdown_worker_pools
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topology.mesh import mesh_topology
from repro.workload.scenarios import ScenarioConfig


@pytest.fixture(autouse=True, scope="module")
def _join_worker_pools_after_each_module():
    """Join the worker pools a module leaves warm. Their threads would
    make every later sequential sweep replay its points instead of
    forking branches, so which path a test took would depend on the
    order the modules ran in."""
    yield
    shutdown_worker_pools()


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def network(engine: Engine, rng: RngRegistry) -> Network:
    return Network(engine, rng)


@pytest.fixture
def small_mesh():
    return mesh_topology(4, 4)


@pytest.fixture
def fast_config(small_mesh) -> ScenarioConfig:
    """A small, fast scenario used by integration tests."""
    return ScenarioConfig(
        topology=small_mesh,
        damping=CISCO_DEFAULTS,
        seed=7,
        link=LinkConfig(base_delay=0.01, jitter=0.02),
    )


class _CallLog:
    """A file of one line per call; ``len()`` reads the current count."""

    def __init__(self, path) -> None:
        self.path = path
        path.write_text("")

    def record(self) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")

    def __len__(self) -> int:
        return len(self.path.read_text(encoding="utf-8").splitlines())


@pytest.fixture
def oracle_calls(monkeypatch, tmp_path):
    """Counts converged-state invariant-oracle passes (the oracle still
    runs). Sweep points that run in forked branches count too: every
    process appends its calls to one log file."""
    import repro.analysis.invariants as invariants

    calls = _CallLog(tmp_path / "oracle_calls.log")
    oracle = invariants.check_converged_invariants
    monkeypatch.setattr(
        invariants,
        "check_converged_invariants",
        lambda scenario: calls.record() or oracle(scenario),
    )
    return calls


def reduced_pulse_counts(experiment_id: str) -> Tuple[int, ...]:
    """The grid a sweep runs on in tier-1: the union of the ``pulses``
    of the claim rows of every sweep that shares a series with it, so
    the shared series is executed once. Empty for other experiments."""
    entry = EXPERIMENTS[experiment_id]
    if not isinstance(entry, Sweep):
        return ()
    series = set(entry.specs())
    sharing = {experiment_id} | {
        other
        for other, sweep in EXPERIMENTS.items()
        if isinstance(sweep, Sweep) and series & set(sweep.specs())
    }
    return tuple(
        sorted({n for other in sharing for claim in claims_for(other) for n in claim.pulses})
    )


@pytest.fixture(scope="session")
def series_cache() -> SeriesCache:
    """Sweeps with a series in common execute it once per session."""
    return {}


@pytest.fixture(scope="session")
def experiment_result(series_cache):
    """``experiment_result(id)``: the registered experiment, run once per
    session — a sweep on the reduced grid its claim rows read, anything
    else as ``rfd-repro run`` runs it. The claims test and the rendering
    pins read the same result."""
    results: Dict[str, ExperimentResult] = {}

    def result(experiment_id: str) -> ExperimentResult:
        if experiment_id not in results:
            counts = reduced_pulse_counts(experiment_id) or None
            results[experiment_id] = run_experiment(
                experiment_id, RunOptions(pulse_counts=counts), series_cache
            )
            # Kept results live to the end of the session: freeze them so
            # the full collection every later sweep point runs skips them.
            gc.collect()
            gc.freeze()
        return results[experiment_id]

    return result


@pytest.fixture(scope="session")
def claims_hold(experiment_result):
    """``claims_hold(*claim_ids)`` asserts each row of the claims table
    on its experiment's session result."""

    def check(*claim_ids: str) -> None:
        claims = [CLAIMS_BY_ID[claim_id] for claim_id in claim_ids]
        failures = [claim.check(experiment_result(claim.experiment)) for claim in claims]
        assert not any(failures), "\n".join(filter(None, failures))

    return check
