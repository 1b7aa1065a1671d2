"""Integration tests for causal tracing: determinism across seeds and
worker counts, and exact agreement with the damping managers' records.

The determinism contract is byte-level: the canonical JSONL a traced
episode writes must be identical whatever ``--jobs`` is, because each
per-point file is produced wholly by one deterministic run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.causality import analyze_trace
from repro.experiments.base import (
    DEFAULT_SEED,
    internet100_config,
    mesh100_config,
    small_mesh_config,
)
from repro.experiments.gr_faults import FX1_FLAP_INTERVAL, FX1_PULSES, _fx1_config
from repro.experiments.parallel import execute_sweep
from repro.trace import MemorySink, Tracer, parse_jsonl
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import run_scenario

PULSES = (0, 1, 2)


def _trace_files(trace_dir: pathlib.Path):
    return sorted(trace_dir.glob("point_*.jsonl"))


@pytest.mark.parametrize("seed", [0, 7])
def test_trace_jsonl_byte_identical_jobs_1_vs_2(tmp_path, seed):
    config = small_mesh_config(seed=seed)
    dirs = {}
    outcomes = {}
    for jobs in (1, 2):
        trace_dir = tmp_path / f"jobs{jobs}"
        outcomes[jobs] = execute_sweep(
            config, PULSES, jobs=jobs, trace_dir=str(trace_dir)
        )
        dirs[jobs] = trace_dir

    assert [o.digest for o in outcomes[1]] == [o.digest for o in outcomes[2]]
    assert [o.trace_digest for o in outcomes[1]] == [o.trace_digest for o in outcomes[2]]

    sequential = _trace_files(dirs[1])
    parallel = _trace_files(dirs[2])
    assert [p.name for p in sequential] == [p.name for p in parallel]
    assert len(sequential) == len(PULSES)
    for seq_file, par_file in zip(sequential, parallel):
        assert seq_file.read_bytes() == par_file.read_bytes()


def test_tracing_does_not_perturb_run_digests(tmp_path):
    config = small_mesh_config(seed=3)
    untraced = execute_sweep(config, PULSES, jobs=1)
    traced = execute_sweep(config, PULSES, jobs=1, trace_dir=str(tmp_path / "t"))
    assert [o.digest for o in untraced] == [o.digest for o in traced]
    assert all(o.trace_digest is None for o in untraced)
    assert all(o.trace_digest is not None for o in traced)


def test_trace_files_parse_back_and_analyze(tmp_path):
    outcomes = execute_sweep(
        small_mesh_config(seed=7), (2,), jobs=1, trace_dir=str(tmp_path)
    )
    (trace_file,) = _trace_files(tmp_path)
    records = parse_jsonl(trace_file.read_text(encoding="utf-8"))
    assert records, "a two-pulse episode must emit records"
    # Causes always precede effects.
    for record in records:
        if record.cause_id is not None:
            assert record.cause_id < record.id
    report = analyze_trace(records)
    assert report.records_total == len(records)
    assert report.counts_by_kind["flap"] == 4  # 2 pulses x (down + up)
    assert outcomes[0].trace_digest is not None


def _fx1(graceful, crash):
    return lambda: _fx1_config(graceful=graceful, crash=crash)


#: label -> (config factory, pulses, flap interval) of every checked episode.
EPISODES = {
    "mesh100-n1": (lambda: mesh100_config(seed=DEFAULT_SEED), 1, 60.0),
    "mesh100-n3": (lambda: mesh100_config(seed=DEFAULT_SEED), 3, 60.0),
    "mesh100-rcn-n3": (lambda: mesh100_config(seed=DEFAULT_SEED, rcn=True), 3, 60.0),
    "internet100-n2": (lambda: internet100_config(seed=DEFAULT_SEED), 2, 60.0),
    "fx1-baseline": (_fx1(False, False), FX1_PULSES, FX1_FLAP_INTERVAL),
    "fx1-hard-reset": (_fx1(False, True), FX1_PULSES, FX1_FLAP_INTERVAL),
    "fx1-graceful": (_fx1(True, True), FX1_PULSES, FX1_FLAP_INTERVAL),
}


@pytest.mark.parametrize(
    "build, pulses, interval", list(EPISODES.values()), ids=list(EPISODES)
)
def test_trace_dag_counts_equal_the_damping_records(build, pulses, interval):
    """The trace DAG and the damping managers observe the same run, so
    their counts agree exactly; the after-shock fan-out partitions the
    reuse-rooted postponements."""
    tracer = Tracer(MemorySink())
    _scenario, result = run_scenario(
        build(), PulseSchedule.regular(pulses, interval), tracer=tracer
    )
    tracer.close()
    report = analyze_trace(tracer.records)
    collector = result.collector

    assert report.postponements_total == result.summary.secondary_charges
    assert report.reuse_total == len(collector.reuse_events())
    assert report.reuse_noisy == result.summary.noisy_reuses
    assert report.reuse_muffled == report.reuse_muffled_childless
    assert sum(row.postponements for row in report.after_shocks) == (
        report.postponements_by_class["reuse"]
    )


def test_largest_after_shock_on_the_single_pulse_mesh100():
    """The paper's "after shock", read off the DAG: one reuse expiry
    whose update wave postpones 132 other reuse timers."""
    tracer = Tracer(MemorySink())
    run_scenario(
        mesh100_config(seed=DEFAULT_SEED), PulseSchedule.regular(1, 60.0), tracer=tracer
    )
    report = analyze_trace(tracer.records)
    assert report.postponements_by_class["reuse"] == 567
    top = report.after_shocks[0]
    assert (round(top.time, 1), top.postponements) == (1931.9, 132)
