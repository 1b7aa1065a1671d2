"""Command-line interface.

``rfd-repro`` (or ``python -m repro``) exposes the experiment drivers and
an ad-hoc simulation runner::

    rfd-repro list
    rfd-repro run F8            # reproduce Figure 8 and print its table
    rfd-repro run T1 F3 F7      # several experiments in one invocation
    rfd-repro run F8 --jobs 4   # sweep points across 4 worker processes
    rfd-repro run F8 --smoke --verify-digests benchmarks/results/f8_smoke_digests.json
    rfd-repro simulate --topology mesh --nodes 100 --pulses 3 --damping cisco
    rfd-repro trace --topology mesh --nodes 100 --pulses 3 --out run.jsonl
    rfd-repro lint --pass all src/   # detlint + semlint static analysis

Commands raise on failure; :func:`main` alone turns an exception into an
exit code. 0 is success; 1 means the run broke its own rules
(``SimulationError``: stall, lost sweep points, timer-audit or invariant
violation) or a command's own check failed (digest mismatch, lint
findings); 2 is bad input (any other ``ReproError`` or ``OSError``, and
argparse usage errors). See docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Any, Dict, List, Optional

from repro.core.params import VENDOR_PRESETS
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.experiments.registry import describe, list_experiments, run_experiment
from repro.metrics.report import render_table
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import ScenarioConfig, run_scenario


#: Flags several subcommands share, declared once; each subcommand adds
#: them with its own help text (what the flag means there differs).
_SHARED_FLAGS = {
    "--jobs": dict(type=int, default=1, metavar="N"),
    "--check-invariants": dict(action="store_true"),
    "--audit-timers": dict(action="store_true"),
    "--graceful-restart": dict(
        type=float, default=None, metavar="SECS", dest="graceful_restart"
    ),
}


def _add_shared_flag(parser: argparse.ArgumentParser, flag: str, help: str) -> None:
    parser.add_argument(flag, help=help, **_SHARED_FLAGS[flag])


def _add_scenario_flags(
    parser: argparse.ArgumentParser,
    nodes: int,
    pulses: int,
    pulses_help: str = "number of flap pulses",
) -> None:
    """The ad-hoc scenario flags of ``simulate``, ``faults run`` and
    ``trace`` (consumed by :func:`_adhoc_config`)."""
    parser.add_argument("--topology", choices=["mesh", "internet"], default="mesh")
    parser.add_argument("--nodes", type=int, default=nodes, help="topology size")
    parser.add_argument("--pulses", type=int, default=pulses, help=pulses_help)
    parser.add_argument("--interval", type=float, default=60.0, help="flap interval (s)")
    parser.add_argument(
        "--damping",
        choices=["off", *VENDOR_PRESETS],
        default="cisco",
        help="damping parameter preset (or off)",
    )
    parser.add_argument("--rcn", action="store_true", help="enable RCN-enhanced damping")
    parser.add_argument("--seed", type=int, default=42)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfd-repro",
        description=(
            "Reproduction of 'Timer Interaction in Route Flap Damping' "
            "(ICDCS 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments by id")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids, e.g. F8 F9 T1 — or 'all' for every artefact",
    )
    run.add_argument(
        "--csv-dir",
        default=None,
        help="also export each experiment's tables/series as CSV into this directory",
    )
    _add_shared_flag(
        run,
        "--check-invariants",
        "sweep every drained episode with the converged-state "
        "invariant oracle (fails the run on any violation)",
    )
    _add_shared_flag(
        run,
        "--jobs",
        "worker processes for sweeps: 1 = sequential (default), "
        "0 = one per CPU, N = that many; results are digest-identical "
        "for every value",
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "reduced-pulse-count sweeps (0..3 instead of 0..10) — a "
            "seconds-long wiring check for CI, not a figure reproduction"
        ),
    )
    run.add_argument(
        "--verify-digests",
        default=None,
        metavar="FILE",
        help=(
            "after each experiment, compare its sweep-point digests "
            "against this committed JSON expectation and fail on mismatch"
        ),
    )
    run.add_argument(
        "--write-digests",
        default=None,
        metavar="FILE",
        help="write the sweep-point digests of this run to FILE and exit 0",
    )

    intended = sub.add_parser(
        "intended", help="evaluate the Section 3 intended-behaviour model"
    )
    intended.add_argument("--pulses", type=int, default=10, help="max pulse count")
    intended.add_argument("--interval", type=float, default=60.0, help="flap interval (s)")
    intended.add_argument("--tup", type=float, default=30.0, help="normal convergence t_up (s)")
    intended.add_argument(
        "--vendor", choices=list(VENDOR_PRESETS), default="cisco"
    )

    sim = sub.add_parser("simulate", help="run a single ad-hoc episode")
    _add_scenario_flags(sim, nodes=100, pulses=1)
    _add_shared_flag(
        sim,
        "--check-invariants",
        "after the episode drains, run the converged-state invariant "
        "oracle (reachability, loop-freedom, decision consistency, "
        "drain) and fail on any violation",
    )
    _add_shared_flag(
        sim,
        "--audit-timers",
        "attach the runtime timer audit (arm/cancel/fire accounting "
        "per handle) and fail on any lifecycle violation — leaked "
        "armed timers, double-arms, unmatched fires",
    )
    sim.add_argument(
        "--audit-alloc",
        action="store_true",
        help=(
            "attach the runtime allocation probe (tracemalloc net bytes "
            "per sub-phase) and print the per-phase allocation "
            "report — the dynamic counterpart of the perflint pass"
        ),
    )
    sim.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help=(
            "inject a deterministic fault plan (crashes, link failures, "
            "lossy links) into the measured episode — see "
            "docs/ROBUSTNESS.md and 'rfd-repro faults template'"
        ),
    )
    _add_shared_flag(
        sim,
        "--graceful-restart",
        "give every router RFC-4724-style graceful restart with this "
        "restart time: neighbours of a crashed router retain its "
        "routes as stale instead of withdrawing them",
    )

    faults = sub.add_parser(
        "faults",
        help="create, inspect, and run deterministic fault plans",
        description=(
            "Fault plans are JSON schedules of link failures, router "
            "crashes (with optional graceful restart), session resets, "
            "lossy links, and seeded flap storms. Same seed + same plan "
            "replays to byte-identical digests, sequentially or under "
            "--jobs N — see docs/ROBUSTNESS.md."
        ),
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    ftemplate = faults_sub.add_parser(
        "template", help="write an example fault plan for a topology"
    )
    ftemplate.add_argument("--topology", choices=["mesh", "internet"], default="mesh")
    ftemplate.add_argument("--nodes", type=int, default=25, help="topology size")
    ftemplate.add_argument(
        "--out", default=None, metavar="FILE", help="write here (default: stdout)"
    )

    fdescribe = faults_sub.add_parser(
        "describe", help="validate a plan file and list its actions"
    )
    fdescribe.add_argument("plan", help="fault plan JSON file")

    frun = faults_sub.add_parser(
        "run", help="sweep pulse counts with a fault plan injected"
    )
    frun.add_argument("plan", help="fault plan JSON file")
    _add_scenario_flags(frun, nodes=25, pulses=3, pulses_help="sweep 0..N pulses")
    _add_shared_flag(
        frun,
        "--jobs",
        "worker processes: 1 = sequential (default), 0 = one per CPU; "
        "digests are identical for every value",
    )
    _add_shared_flag(
        frun,
        "--graceful-restart",
        "give every router graceful restart with this restart time",
    )
    _add_shared_flag(
        frun,
        "--check-invariants",
        "run the converged-state invariant oracle after each episode",
    )
    _add_shared_flag(
        frun, "--audit-timers", "attach the runtime timer audit to each episode"
    )
    frun.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock bound per sweep point when running with --jobs > 1",
    )
    frun.add_argument(
        "--digest-out",
        default=None,
        metavar="FILE",
        help="write the per-point run digests as JSON (determinism checks)",
    )

    trace = sub.add_parser(
        "trace",
        help="run one episode with causal tracing and summarize the DAG",
        description=(
            "Run a single scenario with the causal tracer attached, emit "
            "the trace as canonical JSONL, and print a charge-attribution "
            "summary (origin-flap / path-exploration / secondary-charging) "
            "cross-checked against the windowed attribution analysis — see "
            "docs/OBSERVABILITY.md."
        ),
    )
    _add_scenario_flags(trace, nodes=100, pulses=3)
    trace.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full trace as canonical JSONL to FILE",
    )
    trace.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        dest="summary_json",
        help="write the causal-attribution summary as JSON to FILE",
    )
    trace.add_argument(
        "--show",
        type=int,
        default=0,
        metavar="N",
        help="print the first N trace records (after --kinds filtering)",
    )
    trace.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2",
        help="comma-separated record kinds for --show (e.g. charge,reuse_expired)",
    )

    topo = sub.add_parser(
        "topo",
        help="Internet-scale topology pipeline: generate, ingest, inspect, bench",
        description=(
            "Generate seeded power-law AS graphs, ingest CAIDA-style "
            "AS-relationship files, print topology statistics, and run "
            "measured large-graph flap episodes (see docs/SCALING.md)."
        ),
    )
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)

    tgen = topo_sub.add_parser(
        "gen", help="generate a seeded power-law AS graph and save it"
    )
    tgen.add_argument("--nodes", type=int, default=1000, help="AS count (default 1000)")
    tgen.add_argument(
        "--attachment", type=int, default=2,
        help="edges each new AS attaches with (default 2)",
    )
    tgen.add_argument(
        "--exponent", type=float, default=1.0,
        help="attachment kernel exponent: 1.0 = classic BA (default)",
    )
    tgen.add_argument(
        "--core", type=int, default=4, help="clique-core size (default 4)"
    )
    tgen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    tgen.add_argument(
        "--relationships", action="store_true",
        help="assign customer-provider / peer-peer relationships",
    )
    tgen.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the topology as JSON (save_topology format)",
    )
    tgen.add_argument(
        "--caida-out", default=None, metavar="FILE",
        help="also write a CAIDA-style AS-relationship file (needs --relationships)",
    )

    tingest = topo_sub.add_parser(
        "ingest", help="ingest a CAIDA-style AS-relationship file"
    )
    tingest.add_argument("path", help="AS-relationship file (provider|customer|-1 / peer|peer|0)")
    tingest.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the ingested topology as JSON (save_topology format)",
    )
    tingest.add_argument(
        "--no-relationships", action="store_true",
        help="keep only the graph (skip RelationshipMap construction/validation)",
    )
    tingest.add_argument(
        "--strict-connectivity", action="store_true",
        help="fail on disconnected input instead of keeping the largest component",
    )

    tstats = topo_sub.add_parser(
        "stats", help="summarise a topology (JSON or AS-relationship file)"
    )
    tstats.add_argument("path", help="topology JSON or AS-relationship file")
    tstats.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    tbench = topo_sub.add_parser(
        "bench",
        help="run a measured large-graph flap episode (wall clock, events/s, peak RSS)",
    )
    tbench.add_argument(
        "--nodes", type=int, default=1000,
        help="generate a power-law graph this size (default 1000)",
    )
    tbench.add_argument(
        "--topology-file", default=None, metavar="FILE",
        help="run on a saved topology JSON instead of generating one",
    )
    tbench.add_argument("--pulses", type=int, default=2, help="flap pulses (default 2)")
    tbench.add_argument(
        "--interval", type=float, default=120.0, help="seconds between flap events"
    )
    tbench.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    tbench.add_argument(
        "--topology-seed", type=int, default=3,
        help="generator seed when --topology-file is not given (default 3)",
    )
    tbench.add_argument(
        "--no-coalesce", action="store_true",
        help="schedule one engine event per message (the small-graph default)",
    )
    tbench.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the measurements as JSON ('-' for stdout)",
    )
    tbench.add_argument(
        "--write-digests", default=None, metavar="FILE",
        help="record this episode's metrics digest into FILE",
    )
    tbench.add_argument(
        "--verify-digests", default=None, metavar="FILE",
        help="fail unless this episode's metrics digest matches FILE",
    )

    lint = sub.add_parser(
        "lint",
        help="run the detlint/semlint/timerlint/perflint static-analysis passes",
        description=(
            "Check Python sources against the determinism (DET001..DET010), "
            "protocol-semantics (SEM001..SEM007), timer-lifecycle "
            "(TIM001..TIM010), and hot-path performance (PERF001..PERF010) "
            "rule catalogues — see docs/STATIC_ANALYSIS.md. PERF findings "
            "keep warning severity only inside the call-graph hot set; "
            "elsewhere they downgrade to advisory info and never block. "
            "Exit-code contract (stable): 0 clean (no blocking findings per "
            "--fail-on), 1 blocking findings or parse errors remain, 2 on "
            "usage errors."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="output_format"
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    lint.add_argument(
        "--pass",
        choices=["det", "sem", "tim", "perf", "all"],
        default="all",
        dest="lint_pass",
        help=(
            "which analysis pass to run: det (determinism), sem (protocol "
            "semantics), tim (timer lifecycle), perf (hot-path "
            "performance), or all (default)"
        ),
    )
    lint.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "enable the incremental cache in DIR (e.g. .lint_cache); "
            "unchanged files are served from the cache, findings are "
            "digest-identical to an uncached run"
        ),
    )
    lint.add_argument(
        "--show-info",
        action="store_true",
        help="list advisory info-severity findings in text output",
    )
    lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="warning",
        dest="fail_on",
        help=(
            "minimum severity that exits 1: 'warning' (default) fails on any "
            "finding, 'error' ignores warnings, 'never' always exits 0 "
            "(parse errors still fail regardless)"
        ),
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "compare findings against a baseline file; baselined findings "
            "are reported but do not fail the run"
        ),
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(f"{experiment_id:>4}  {describe(experiment_id)}")
    return 0


def _read_json(path: str) -> Dict[str, Any]:
    """A JSON expectation file the user named; unreadable or malformed
    is bad input, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _result_digests(result) -> Dict[str, Dict[str, str]]:
    """``{series_key: {pulses: digest}}`` for every sweep the experiment
    ran (empty for experiments without sweep data)."""
    return {
        key: {str(point.pulses): point.digest for point in series.points}
        for key, series in result.data.get("sweeps", {}).items()
    }


def _verify_digests(
    experiment_id: str,
    actual: Dict[str, Dict[str, str]],
    expected: Dict[str, Dict[str, Dict[str, str]]],
) -> List[str]:
    """Compare one experiment's digests against the expectation file's
    entry; returns human-readable mismatch descriptions (empty = pass)."""
    mismatches: List[str] = []
    wanted = expected.get(experiment_id)
    if wanted is None:
        return [f"{experiment_id}: no entry in the digest expectation file"]
    for series_key, points in sorted(wanted.items()):
        got_points = actual.get(series_key, {})
        for pulses, digest in sorted(points.items()):
            got = got_points.get(pulses)
            if got is None:
                mismatches.append(
                    f"{experiment_id}/{series_key}: missing point n={pulses}"
                )
            elif got != digest:
                mismatches.append(
                    f"{experiment_id}/{series_key} n={pulses}: "
                    f"digest {got[:16]}… != expected {digest[:16]}…"
                )
    return mismatches


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.base import SMOKE_PULSE_COUNTS, RunOptions, SeriesCache
    from repro.experiments.parallel import resolve_jobs

    resolve_jobs(args.jobs)  # a bad value fails before any sweep starts
    options = RunOptions(
        pulse_counts=SMOKE_PULSE_COUNTS if args.smoke else None,
        check_invariants=args.check_invariants,
        jobs=args.jobs,
    )
    expected = None
    if args.verify_digests is not None:
        expected = _read_json(args.verify_digests)
    experiment_ids = args.experiments
    if any(eid.lower() == "all" for eid in experiment_ids):
        experiment_ids = list_experiments()
    collected: Dict[str, Dict[str, Dict[str, str]]] = {}
    mismatches: List[str] = []
    # Experiments of one invocation share the series they have in common
    # (F8/F9/F13/F14 run 154 points of which 44 are distinct).
    shared_series: SeriesCache = {}
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, options, shared_series)
        print(result.render())
        digests = _result_digests(result)
        if digests:
            collected[result.experiment_id] = digests
        if expected is not None:
            mismatches.extend(
                _verify_digests(result.experiment_id, digests, expected)
            )
        if args.csv_dir is not None:
            from repro.experiments.export import export_result

            written = export_result(result, args.csv_dir)
            for path in written:
                print(f"wrote {path}")
        print()
    if args.write_digests is not None:
        _write_json(args.write_digests, collected)
        print(f"wrote digests for {len(collected)} experiment(s) to {args.write_digests}")
    if mismatches:
        for mismatch in mismatches:
            print(f"digest mismatch: {mismatch}", file=sys.stderr)
        return 1
    if expected is not None:
        print("all sweep digests match the committed expectation")
    return 0


def _cmd_intended(args: argparse.Namespace) -> int:
    from repro.core.intended import IntendedBehaviorModel

    params = VENDOR_PRESETS[args.vendor]
    model = IntendedBehaviorModel(params, flap_interval=args.interval, tup=args.tup)
    rows = []
    for n in range(0, args.pulses + 1):
        prediction = model.predict(n)
        rows.append(
            [
                n,
                round(prediction.penalty_at_final, 1),
                "yes" if prediction.suppressed else "no",
                prediction.suppression_pulse if prediction.suppression_pulse else "-",
                round(prediction.reuse_delay, 1),
                round(prediction.convergence_time, 1),
            ]
        )
    print(
        render_table(
            ["pulses", "penalty", "suppressed", "onset", "reuse_delay_s", "convergence_s"],
            rows,
            title=(
                f"intended behaviour ({args.vendor}, interval {args.interval:.0f}s, "
                f"t_up {args.tup:.0f}s)"
            ),
        )
    )
    return 0


def _adhoc_topology(args: argparse.Namespace):
    """The ``--topology``/``--nodes`` choice as a topology."""
    if args.topology == "mesh":
        side = max(2, round(args.nodes ** 0.5))
        return mesh_topology(side, side)
    return internet_topology(args.nodes, seed=7)


def _adhoc_config(args: argparse.Namespace) -> ScenarioConfig:
    """The shared --topology/--nodes/--damping/... scenario config used
    by the ``simulate`` and ``trace`` subcommands."""
    damping = None if args.damping == "off" else VENDOR_PRESETS[args.damping]
    return ScenarioConfig(
        topology=_adhoc_topology(args),
        damping=damping,
        rcn=args.rcn,
        seed=args.seed,
    )


def _with_fault_options(
    config: ScenarioConfig,
    faults_path: Optional[str],
    graceful_restart: Optional[float],
) -> ScenarioConfig:
    """Apply ``--faults`` / ``--graceful-restart`` to an ad-hoc config."""
    from dataclasses import replace

    if faults_path is not None:
        from repro.faults import FaultPlan

        config = replace(config, faults=FaultPlan.load(faults_path))
    if graceful_restart is not None:
        from repro.bgp.graceful_restart import GracefulRestartConfig

        config = replace(
            config,
            graceful_restart=GracefulRestartConfig(restart_time=graceful_restart),
        )
    return config


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _with_fault_options(
        _adhoc_config(args), args.faults, args.graceful_restart
    )
    alloc_probe = None
    if args.audit_alloc:
        from repro.sim.allocprobe import AllocationProbe

        alloc_probe = AllocationProbe()
    with alloc_probe if alloc_probe is not None else contextlib.nullcontext():
        scenario, result = run_scenario(
            config,
            PulseSchedule.regular(args.pulses, args.interval),
            check_invariants=args.check_invariants,
            audit_timers=args.audit_timers,
            phase_probe=alloc_probe,
        )
    headers = ["metric", "value"]
    rows = [
        ["topology", config.topology.name],
        ["pulses", args.pulses],
        ["flap interval (s)", args.interval],
        ["damping", args.damping + (" + RCN" if args.rcn else "")],
        ["warm-up convergence (s)", round(result.warmup_convergence, 1)],
        ["convergence time (s)", round(result.convergence_time, 1)],
        ["message count", result.message_count],
        ["suppressions", result.summary.total_suppressions],
        ["peak damped links", result.summary.peak_damped_links],
        ["noisy / silent reuses", f"{result.summary.noisy_reuses} / {result.summary.silent_reuses}"],
        ["secondary charges", result.summary.secondary_charges],
    ]
    if scenario.fault_injector is not None:
        rows.append(["fault actions fired", scenario.fault_injector.actions_fired])
    if result.collector.drop_count:
        rows.append(["messages dropped", result.collector.drop_count])
        for reason, count in result.collector.drops_by_reason().items():
            rows.append([f"  dropped: {reason}", count])
    # A violation of either check raised inside run_scenario.
    audit = scenario.engine.timer_audit
    if audit is not None:
        rows.append(
            [
                "timer audit",
                f"ok ({audit.timers_seen} timers, {audit.transitions} transitions)",
            ]
        )
    if args.check_invariants:
        rows.append(["invariants", f"ok ({len(scenario.routers)} routers)"])
    print(render_table(headers, rows, title="simulation result"))
    if alloc_probe is not None:
        print(alloc_probe.describe())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.attribution import analyze_run
    from repro.analysis.causality import analyze_trace, compare_with_attribution
    from repro.trace import JsonlSink, MemorySink, Tracer, canonical_line
    from repro.trace.records import KNOWN_KINDS

    kinds: Optional[List[str]] = None
    if args.kinds is not None:
        kinds = [kind.strip() for kind in args.kinds.split(",") if kind.strip()]
        unknown = sorted(set(kinds) - KNOWN_KINDS)
        if unknown:
            raise ConfigurationError(
                f"unknown kind(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(KNOWN_KINDS))})"
            )

    tracer = Tracer(JsonlSink(args.out) if args.out is not None else MemorySink())
    _scenario, result = run_scenario(
        _adhoc_config(args),
        PulseSchedule.regular(args.pulses, args.interval),
        tracer=tracer,
    )
    digest = tracer.close()
    causal = analyze_trace(tracer.records)
    windowed = analyze_run(result)
    comparison = compare_with_attribution(causal, windowed.secondary_fraction)

    summary = causal.to_json_dict()
    summary["digest"] = digest
    summary["windowed_comparison"] = comparison

    rows: List[List[object]] = [
        ["records", causal.records_total],
        ["trace digest", (digest or "")[:16]],
        ["charges (total)", causal.charges_total],
    ]
    for label, count in causal.charges_by_class.items():
        rows.append([f"  charge: {label}", count])
    rows.append(["postponements (total)", causal.postponements_total])
    for label, count in causal.postponements_by_class.items():
        rows.append([f"  postponed by: {label}", count])
    rows.extend(
        [
            ["reuse expiries (noisy / muffled)", f"{causal.reuse_noisy} / {causal.reuse_muffled}"],
            ["secondary fraction (trace)", round(causal.secondary_fraction, 4)],
            ["secondary fraction (windowed)", round(windowed.secondary_fraction, 4)],
            ["agreement gap", comparison["difference"]],
        ]
    )
    print(render_table(["metric", "value"], rows, title="causal trace summary"))

    if args.show > 0:
        shown = 0
        for record in tracer.records:
            if kinds is not None and record.kind not in kinds:
                continue
            print(canonical_line(record))
            shown += 1
            if shown >= args.show:
                break
    if args.out is not None:
        print(f"wrote trace to {args.out}")
    if args.summary_json is not None:
        _write_json(args.summary_json, summary)
        print(f"wrote summary to {args.summary_json}")
    return 0


def _template_plan(topology) -> "object":
    """A runnable example plan built from a concrete topology: one
    crash/restart, one link flap, one lossy window, one small storm."""
    from repro.faults import (
        FaultPlan,
        FlapStorm,
        LinkFault,
        LinkImpairment,
        RouterCrash,
        SessionReset,
    )

    edges = topology.edges
    # Crash a neighbour of the default ISP (nodes[0]) rather than the ISP
    # itself: taking the origin's attachment point down just partitions
    # the network, which makes a dull example.
    victim = topology.neighbors(topology.nodes[0])[0]
    return FaultPlan(
        name=f"example-{topology.name}",
        crashes=(RouterCrash(router=victim, at=150.0, down_for=30.0),),
        link_faults=(
            LinkFault(a=edges[0][0], b=edges[0][1], down_at=200.0, up_at=260.0),
        ),
        session_resets=(SessionReset(a=edges[1][0], b=edges[1][1], at=240.0),),
        impairments=(
            LinkImpairment(
                a=edges[0][0],
                b=edges[0][1],
                start=60.0,
                duration=120.0,
                loss=0.05,
                duplicate=0.02,
                extra_jitter=0.5,
            ),
        ),
        storms=(
            FlapStorm(
                name="storm0",
                links=(tuple(edges[2]),),
                start=300.0,
                flaps=3,
                min_interval=5.0,
                max_interval=15.0,
                down_time=2.0,
            ),
        ),
    )


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan

    if args.faults_command == "template":
        plan = _template_plan(_adhoc_topology(args))
        document = plan.dumps()
        if args.out is None:
            print(document, end="")
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
            print(f"wrote example plan to {args.out}")
        return 0

    if args.faults_command == "describe":
        plan = FaultPlan.load(args.plan)
        rows: List[List[object]] = []
        for fault in plan.link_faults:
            window = f"down {fault.down_at:.0f}s" + (
                f" .. up {fault.up_at:.0f}s" if fault.up_at is not None else " (stays down)"
            )
            rows.append(["link-fault", f"{fault.a}-{fault.b}", window])
        for crash in plan.crashes:
            window = f"crash {crash.at:.0f}s" + (
                f" .. restart {crash.at + crash.down_for:.0f}s"
                if crash.down_for is not None
                else " (stays down)"
            )
            rows.append(["crash", crash.router, window])
        for reset in plan.session_resets:
            rows.append(["session-reset", f"{reset.a}-{reset.b}", f"at {reset.at:.0f}s"])
        for imp in plan.impairments:
            window = f"from {imp.start:.0f}s" + (
                f" for {imp.duration:.0f}s" if imp.duration is not None else " (episode end)"
            )
            rows.append(
                [
                    "impairment",
                    f"{imp.a}-{imp.b}",
                    f"{window}: loss={imp.loss} dup={imp.duplicate} "
                    f"jitter={imp.extra_jitter}",
                ]
            )
        for storm in plan.storms:
            rows.append(
                [
                    "storm",
                    storm.name,
                    f"{storm.flaps} flaps over {len(storm.links)} link(s) "
                    f"from {storm.start:.0f}s (stream {storm.stream_name})",
                ]
            )
        print(
            render_table(
                ["action", "target", "schedule"],
                rows,
                title=f"fault plan {plan.name!r} ({plan.action_count} action(s))",
            )
        )
        return 0

    # faults run
    from repro.experiments.parallel import execute_sweep

    config = _with_fault_options(
        _adhoc_config(args), args.plan, args.graceful_restart
    )
    outcomes = execute_sweep(
        config,
        list(range(0, args.pulses + 1)),
        flap_interval=args.interval,
        jobs=args.jobs,
        check_invariants=args.check_invariants,
        audit_timers=args.audit_timers,
        point_timeout=args.point_timeout,
    )
    rows = [
        [
            outcome.pulses,
            outcome.message_count,
            outcome.suppressions,
            outcome.secondary_charges,
            round(outcome.convergence_time, 1),
            outcome.digest[:16],
        ]
        for outcome in outcomes
    ]
    print(
        render_table(
            ["pulses", "messages", "suppressions", "secondary", "convergence_s", "digest"],
            rows,
            title=f"fault sweep ({args.plan}, jobs={args.jobs})",
        )
    )
    if args.digest_out is not None:
        digests = {str(outcome.pulses): outcome.digest for outcome in outcomes}
        _write_json(args.digest_out, digests)
        print(f"wrote digests to {args.digest_out}")
    return 0


def _load_any_topology(path: str):
    """Load ``path`` as topology JSON, falling back to the CAIDA-style
    AS-relationship format (the two interchange formats `topo` accepts)."""
    from repro.errors import TopologyError
    from repro.topology.io import load_topology
    from repro.topology.scale import ingest_as_relationships

    try:
        return load_topology(path)
    except TopologyError:
        return ingest_as_relationships(path)


def _scale_digest_key(result) -> str:
    return (
        f"{result.topology_name}/seed{result.seed}/pulses{result.pulses}"
        f"/coalesce{int(result.coalesce_delivery)}"
    )


def _cmd_topo(args: argparse.Namespace) -> int:
    from repro.topology.io import save_topology
    from repro.topology.scale import (
        ingest_as_relationships,
        powerlaw_topology,
        topology_stats,
        write_as_relationships,
    )

    if args.topo_command == "bench":
        return _cmd_topo_bench(args)
    if args.topo_command == "stats":
        stats = topology_stats(_load_any_topology(args.path))
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            _print_stats_table(stats)
        return 0

    # gen / ingest: make a topology, print its stats, save it.
    generated = args.topo_command == "gen"
    if generated:
        if args.caida_out and not args.relationships:
            raise ConfigurationError("--caida-out requires --relationships")
        topology = powerlaw_topology(
            args.nodes,
            attachment=args.attachment,
            exponent=args.exponent,
            core=args.core,
            seed=args.seed,
            with_relationships=args.relationships,
        )
    else:
        topology = ingest_as_relationships(
            args.path,
            largest_component=not args.strict_connectivity,
            with_relationships=not args.no_relationships,
        )
    _print_stats_table(topology_stats(topology))
    if args.out:
        save_topology(topology, args.out)
        print(f"wrote topology to {args.out}")
    if generated and args.caida_out:
        write_as_relationships(topology, args.caida_out)
        print(f"wrote AS relationships to {args.caida_out}")
    return 0


def _print_stats_table(stats: Dict[str, object]) -> None:
    rows = [[key, stats[key]] for key in stats]
    print(render_table(["property", "value"], rows, title="topology stats"))


def _cmd_topo_bench(args: argparse.Namespace) -> int:
    from repro.experiments.scale import run_scale_episode
    from repro.topology.io import load_topology

    topology = None
    if args.topology_file:
        topology = load_topology(args.topology_file)
    result = run_scale_episode(
        topology=topology,
        nodes=args.nodes,
        pulses=args.pulses,
        interval=args.interval,
        seed=args.seed,
        topology_seed=args.topology_seed,
        coalesce_delivery=not args.no_coalesce,
    )
    payload = result.as_dict()
    rows = [[key, payload[key]] for key in payload]
    print(render_table(["metric", "value"], rows, title="scale episode"))
    if args.json == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.json:
        _write_json(args.json, payload)
        print(f"wrote measurements to {args.json}")

    key = _scale_digest_key(result)
    if args.write_digests:
        try:
            digests = _read_json(args.write_digests)
        except ConfigurationError:
            digests = {}  # first recording: start a new ledger
        digests[key] = result.digest
        _write_json(args.write_digests, digests)
        print(f"recorded digest for {key} in {args.write_digests}")
    if args.verify_digests:
        expected = _read_json(args.verify_digests)
        if key not in expected:
            print(
                f"rfd-repro topo bench: no committed digest for {key} in "
                f"{args.verify_digests}",
                file=sys.stderr,
            )
            return 1
        if expected[key] != result.digest:
            print(
                f"rfd-repro topo bench: digest mismatch for {key}: "
                f"expected {expected[key]}, got {result.digest}",
                file=sys.stderr,
            )
            return 1
        print(f"scale digest matches the committed expectation ({key})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        apply_baseline,
        lint_paths,
        make_config,
        parse_baseline,
        render_baseline,
        render_json,
        render_rule_list,
        render_text,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    if args.update_baseline and args.baseline is None:
        raise ConfigurationError("--update-baseline requires --baseline FILE")
    config = make_config(
        select=tuple(args.select),
        ignore=tuple(args.ignore),
        passes=(args.lint_pass,),
    )
    report = lint_paths(args.paths, config, cache_dir=args.cache_dir)
    if report.cache_stats is not None:
        stats = report.cache_stats
        print(
            "lint cache: {}/{} local hits, {}/{} perf hits".format(
                stats["local_hits"],
                stats["local_hits"] + stats["local_misses"],
                stats["perf_hits"],
                stats["perf_hits"] + stats["perf_misses"],
            ),
            file=sys.stderr,
        )
    if args.baseline is not None:
        if args.update_baseline:
            with open(args.baseline, "w", encoding="utf-8") as handle:
                handle.write(render_baseline(report))
            print(
                f"wrote baseline with {report.finding_count} finding(s) "
                f"to {args.baseline}"
            )
            return 0
        with open(args.baseline, "r", encoding="utf-8") as handle:
            report = apply_baseline(report, parse_baseline(handle.read()))
    if args.output_format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_info=args.show_info))
    # Exit contract: parse errors always fail; findings fail per --fail-on
    # ('warning' = any finding, 'error' = errors only, 'never' = report only).
    if report.parse_errors:
        return 1
    return 1 if report.blocking_findings(args.fail_on) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "list": _cmd_list,
        "run": _cmd_run,
        "intended": _cmd_intended,
        "simulate": _cmd_simulate,
        "trace": _cmd_trace,
        "faults": _cmd_faults,
        "topo": _cmd_topo,
        "lint": _cmd_lint,
    }
    try:
        return commands[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"rfd-repro {args.command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SimulationError) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
