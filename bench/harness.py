"""What runs inside one benchmark child process.

A child sets a workload up (imports, inputs, topology, one discarded
operation), then either times operations with tracing off until its
share of ``--seconds`` is used, or makes the traced pass: the same few
operations once without and once with the shims of :mod:`bench.trace`,
so that the tracing overhead is a ratio of walls measured in one process.
It prints one JSON document on its last line; the parent aggregates.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import statistics
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from bench import trace as spans
from bench.workloads import FLAP_INTERVAL, WORKLOADS, Workload


def host_calibration(repeats: int = 5) -> float:
    """Seconds a fixed pure-Python kernel takes on this host right now
    (heap pushes and pops plus dict updates; nothing of ``repro``);
    the median of ``repeats`` turns."""
    turns = []
    for _ in range(repeats):
        start = time.perf_counter()
        heap: List[Any] = []
        table: Dict[int, int] = {}
        for i in range(60_000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            table[i % 4096] = table.get(i % 4096, 0) + 1
            if i & 1:
                heapq.heappop(heap)
        turns.append(time.perf_counter() - start)
    return statistics.median(turns)


def timed_operation(
    workload: Workload, index: int, recorder: Optional[spans.Recorder] = None
) -> Dict[str, Any]:
    """One sample: collect garbage, time ``run``, then reduce and check
    outside the timed region. An operation that raises is a failed
    sample, not a failed benchmark."""
    gc.collect()
    sample: Dict[str, Any] = {"index": index}
    try:
        if recorder is None:
            start = time.perf_counter()
            raw = workload.run(index)
            sample["wall_s"] = time.perf_counter() - start
        else:
            with spans.tracing(recorder):
                start = time.perf_counter()
                raw = workload.run(index)
                sample["wall_s"] = time.perf_counter() - start
        sample.update(asdict(workload.reduce(raw)))
    except Exception as exc:  # boundary: report, keep sampling
        sample["error"] = f"{type(exc).__name__}: {exc}"
    return sample


def untraced_pass(workload: Workload, seconds: float) -> List[Dict[str, Any]]:
    """Closed loop: operations back to back until ``seconds`` are used."""
    leftovers = spans.shims_installed()
    if leftovers:
        raise RuntimeError(f"timing with shims in place: {leftovers}")
    samples = []
    begun = time.perf_counter()
    while True:
        samples.append(timed_operation(workload, len(samples)))
        if time.perf_counter() - begun >= seconds:
            return samples


def traced_pass(workload: Workload, out_dir: str) -> Dict[str, Any]:
    """The per-layer pass; returns the samples of both halves, the
    per-layer metrics and the path of the trace file it wrote."""
    ops = workload.traced_ops
    inside_s, outside_s = spans.calibrate()
    recorder = spans.Recorder()
    reference, traced = [], []
    for index in range(ops):
        # Untraced and traced turns alternate so that host drift during
        # the pass hits both sides of the overhead ratio alike.
        reference.append(timed_operation(workload, index))
        traced.append(timed_operation(workload, index, recorder))
        recorder.retire_all()
    leftovers = spans.shims_installed()
    if leftovers:
        raise RuntimeError(f"shims survived the traced pass: {leftovers}")

    metrics = _layer_metrics(recorder, reference, traced, inside_s, outside_s)
    metrics.update(_workload_extras(workload))
    for sample in traced:
        if sample.get("fidelity_rel_err") is not None:
            metrics["fidelity_rel_err"] = max(
                metrics["fidelity_rel_err"], sample["fidelity_rel_err"]
            )

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{workload.name}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "operations": ops,
                "operation_wall_s": [s.get("wall_s") for s in traced],
                "untraced_wall_s": [s.get("wall_s") for s in reference],
                "span_cost_s": {"inside": inside_s, "outside": outside_s},
                "layers": recorder.layers(inside_s, outside_s),
                "sites": recorder.site_report(inside_s, outside_s),
                "counts": recorder.counts,
                "span_sites": recorder.sites,
                "span_fields": ["site", "id", "parent", "start_s", "end_s"],
                "spans": recorder.spans,
            },
            handle,
        )
    return {
        "reference": reference,
        "traced": traced,
        "metrics": metrics,
        "trace_file": trace_path,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(
    recorder: spans.Recorder,
    reference: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    inside_s: float,
    outside_s: float,
) -> Dict[str, float]:
    """Per-layer metrics, each a mean per traced operation."""
    ops = len(traced)
    traced_wall = sum(s.get("wall_s", 0.0) for s in traced)
    reference_wall = sum(s.get("wall_s", 0.0) for s in reference)
    layers = recorder.layers(inside_s, outside_s)
    metrics: Dict[str, float] = {}
    for name in spans.LAYERS:
        metrics[f"{name}.self_s"] = layers[name]["self_s"] / ops
        metrics[f"{name}.calls"] = layers[name]["calls"] / ops
    calls = {name: layers[name]["calls"] for name in spans.LAYERS}
    site = recorder.site_calls
    counts, totals = recorder.counts, recorder.totals
    events = sum(site(f"event:{tag}") for tag in (*spans.EVENT_LAYERS, "other"))
    # restart_if_idle arms only when idle; nothing on these paths uses it.
    arms = site("Timer.start") + site("Timer.reschedule") + site("Timer.restart_if_idle")
    deferred, sent = site("MraiLimiter.defer"), site("MraiLimiter.note_sent")

    from repro.bgp.paths import global_path_table

    metrics.update(
        {
            "sim.engine.events": totals["events"] / ops,
            "sim.engine.events_per_s": _ratio(totals["events"], reference_wall),
            "sim.engine.cancelled_share": 1.0
            - _ratio(events, calls["sim.engine.schedule"]),
            "sim.timers.rearm_share": _ratio(counts["timer_rearms"], arms),
            "net.link.msgs_per_deliver_event": _ratio(
                site("Network.deliver"), site("event:deliver")
            ),
            "bgp.rib.duplicate_share": _ratio(totals["duplicates"], totals["received"]),
            "bgp.decision.best_change_share": _ratio(
                totals["best_changes"], calls["bgp.decision"]
            ),
            "bgp.paths.distinct_paths": float(global_path_table().stats()["paths"]),
            "core.damping.charges": totals["charges"] / ops,
            "core.damping.suppressions": totals["suppressions"] / ops,
            "core.damping.recharges": totals["recharges"] / ops,
            "core.damping.silent_reuse_share": _ratio(
                totals["silent_reuses"], totals["reuses"]
            ),
            # Every rate-limited send attempt ends in note_sent or defer.
            "bgp.mrai.deferred_share": _ratio(deferred, deferred + sent),
            "metrics.collector.records": totals["records"] / ops,
            "workload.scenarios.snapshot_bytes": counts["snapshot_bytes"] / ops,
            "workload.scenarios.cache_hits": 0.0,
            "workload.scenarios.cache_misses": 0.0,
            "experiments.parallel.jobs_n_speedup": 0.0,
            "trace.memory_sink_ratio": 0.0,
            "fidelity_rel_err": 0.0,
            "bench.trace_overhead_ratio": statistics.median(
                _ratio(t.get("wall_s", 0.0), r.get("wall_s", 0.0))
                for t, r in zip(traced, reference)
            ),
            "bench.span_cost_ns": (inside_s + outside_s) * 1e9,
            "bench.labelled_share": _ratio(
                sum(layer["self_raw_s"] for layer in layers.values()), traced_wall
            ),
        }
    )
    return metrics


def _workload_extras(workload: Workload) -> Dict[str, float]:
    """Untraced measurements only one workload can make."""
    if workload.name == "fig8_sweep":
        return _sweep_extras(workload.seed)
    if workload.name == "mesh100_damped":
        return {"trace.memory_sink_ratio": _memory_sink_ratio(workload)}
    return {}


def _sweep_extras(seed: int) -> Dict[str, float]:
    """Cache counters of one sweep and the damped-mesh series at
    ``jobs=min(2, cpus)`` against ``jobs=1`` (cold pool included)."""
    from repro.experiments.base import (
        default_pulse_counts,
        mesh100_config,
        run_sweep,
        sweep_cache,
    )
    from repro.experiments.parallel import available_cpus, shutdown_worker_pools

    cache = sweep_cache()
    hits, misses = float(cache.hits), float(cache.misses)
    jobs = min(2, available_cpus())
    config = mesh100_config(seed=seed)
    walls = []
    digests = []
    try:
        for workers in (1, jobs):
            cache.clear()
            gc.collect()
            start = time.perf_counter()
            series = run_sweep("damped mesh", config, default_pulse_counts(), jobs=workers)
            walls.append(time.perf_counter() - start)
            digests.append([point.digest for point in series.points])
    finally:
        shutdown_worker_pools()
    if digests[0] != digests[1]:
        raise RuntimeError(f"jobs={jobs} changed the sweep's digests")
    return {
        "workload.scenarios.cache_hits": hits,
        "workload.scenarios.cache_misses": misses,
        "experiments.parallel.jobs_n_speedup": _ratio(walls[0], walls[1]),
    }


def _memory_sink_ratio(workload: Workload) -> float:
    """One n = 3 episode under the repo's own ``Tracer(MemorySink())``
    against the same episode without it."""
    from repro.trace.sinks import MemorySink
    from repro.trace.tracer import Tracer
    from repro.workload.pulses import PulseSchedule
    from repro.workload.scenarios import Scenario, ScenarioConfig

    walls = []
    for sink in (None, MemorySink()):
        config = ScenarioConfig(
            topology=workload.topology, damping=workload.damping, seed=workload.seed
        )
        gc.collect()
        start = time.perf_counter()
        scenario = Scenario(config)
        scenario.warm_up()
        tracer = Tracer(sink) if sink is not None else None
        scenario.run(PulseSchedule.regular(3, FLAP_INTERVAL), tracer=tracer)
        if tracer is not None:
            tracer.close()
        walls.append(time.perf_counter() - start)
    return _ratio(walls[1], walls[0])


def child_main(
    name: str, seed: int, seconds: float, traced: bool, spawned_at: float, out_dir: str
) -> int:
    """Entry point of a child process; prints its JSON report."""
    workload = WORKLOADS[name](seed)
    workload.prepare()
    workload.warm_up()
    gc.collect()
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        # time.monotonic is system-wide, so the parent's reading taken
        # just before it spawned this process is comparable.
        "setup_s": time.monotonic() - spawned_at,
    }
    if traced:
        report.update(traced_pass(workload, out_dir))
    else:
        report["samples"] = untraced_pass(workload, seconds)
    from repro.experiments.scale import peak_rss_bytes

    report["peak_rss_mb"] = peak_rss_bytes() / 1e6
    print(json.dumps(report))
    return 0
