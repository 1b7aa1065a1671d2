"""Integration tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in ("T1", "F8", "F15", "X4"):
        assert experiment_id in out


def test_run_table1(capsys):
    assert main(["run", "T1"]) == 0
    out = capsys.readouterr().out
    assert "Cisco" in out
    assert "Juniper" in out
    assert "1000" in out


def test_run_fig3(capsys):
    assert main(["run", "F3"]) == 0
    out = capsys.readouterr().out
    assert "penalty" in out


def test_run_multiple(capsys):
    assert main(["run", "T1", "F3"]) == 0
    out = capsys.readouterr().out
    assert "T1" in out and "F3" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "F99"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfd-repro run: unknown experiment 'F99'")
    assert "available: T1, F3, " in err


#: Unknown ids, bad values, unwritable outputs, unreadable inputs, a stray plan.
BAD_INVOCATIONS = [
    "run NOPE",
    "run F8 --smoke --jobs -2",
    "simulate --jobs -1",  # the flag is gone: an argparse usage error
    "simulate --nodes 9 --interval -5",
    "simulate --nodes 9 --pulses -1",
    "intended --interval 0",
    "trace --nodes 9 --pulses 1 --out /nonexistent/x.jsonl",
    "trace --nodes 9 --pulses 1 --json /nonexistent/x.json",
    "faults template --out /nonexistent/x.json",
    "run T1 --write-digests /nonexistent/x.json",
    "run T1 --csv-dir /proc/nope",
    "run T1 --verify-digests README.md",
    "lint --update-baseline src",
    "topo gen --nodes 100 --caida-out x",
    "topo bench --topology-file /nonexistent.json",
    "faults run examples/faults_demo.json --nodes 9",
]


@pytest.fixture
def in_repo_root(monkeypatch):
    import pathlib

    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[2])


@pytest.mark.parametrize("invocation", BAD_INVOCATIONS)
def test_bad_input_exits_2_with_one_line_and_no_traceback(
    capsys, in_repo_root, invocation
):
    argv = invocation.split()
    try:
        code = main(argv)
    except SystemExit as usage_error:  # argparse's own exit, also 2
        code = usage_error.code
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    if "--jobs -1" in invocation:
        assert lines[-1].startswith("rfd-repro: error: ")
    else:
        assert len(lines) == 1 and lines[0].startswith(f"rfd-repro {argv[0]}: ")


@pytest.mark.parametrize(
    "invocation",
    [
        "simulate --nodes 9 --pulses 1 --check-invariants",
        "simulate --nodes 9 --pulses 1 --audit-timers",
        "faults run examples/faults_demo.json --nodes 25 --pulses 0 --check-invariants",
    ],
)
def test_seeded_violation_exits_1(capsys, monkeypatch, in_repo_root, invocation):
    """A run that breaks its own rules is exit 1 from every command."""
    import repro.analysis.invariants as invariants
    from repro.sim.timers import TimerAudit, TimerAuditViolation

    broken = invariants.InvariantViolation("m00x00", "loop", "seeded")
    monkeypatch.setattr(
        invariants,
        "check_converged_invariants",
        lambda scenario: invariants.InvariantReport(violations=[broken]),
    )
    leak = TimerAuditViolation(kind="leak", timer="x", time=1.0, detail="seeded")
    monkeypatch.setattr(TimerAudit, "verify", lambda self: [leak])
    assert main(invocation.split()) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"rfd-repro {invocation.split()[0]}: ")
    assert "violation(s): " in lines[0]


def test_simulate_small_mesh(capsys):
    code = main(
        [
            "simulate",
            "--topology", "mesh",
            "--nodes", "16",
            "--pulses", "1",
            "--damping", "cisco",
            "--seed", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "convergence time" in out
    assert "mesh-4x4" in out


def test_simulate_damping_off(capsys):
    code = main(
        ["simulate", "--topology", "mesh", "--nodes", "16", "--pulses", "2",
         "--damping", "off", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suppressions" in out


def test_simulate_internet_with_rcn(capsys):
    code = main(
        ["simulate", "--topology", "internet", "--nodes", "30", "--pulses", "1",
         "--rcn", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cisco + RCN" in out


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_simulate_audit_alloc_reports_subphase_bytes(capsys):
    code = main(
        [
            "simulate",
            "--topology", "mesh",
            "--nodes", "9",
            "--pulses", "1",
            "--damping", "cisco",
            "--seed", "3",
            "--audit-alloc",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "allocation audit" in out
    assert "decision_process" in out
    assert "events=" in out


def test_intended_command(capsys):
    assert main(["intended", "--pulses", "4", "--vendor", "cisco"]) == 0
    out = capsys.readouterr().out
    assert "suppressed" in out
    assert "yes" in out  # suppression onset at pulse 3
    assert "cisco" in out


def test_intended_command_juniper(capsys):
    assert main(["intended", "--pulses", "3", "--vendor", "juniper", "--tup", "10"]) == 0
    out = capsys.readouterr().out
    assert "juniper" in out


def test_run_with_csv_export(capsys, tmp_path):
    assert main(["run", "T1", "--csv-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "T1.csv").exists()


# ----------------------------------------------------------------------
# lint subcommand (detlint)
# ----------------------------------------------------------------------


def test_lint_clean_tree_exits_zero(capsys):
    import pathlib

    import repro

    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    assert main(["lint", str(src_dir)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_seeded_violation_exits_nonzero(capsys, tmp_path):
    """Acceptance: a DET001/DET002 fixture fails with rule id and file:line."""
    fixture = tmp_path / "violations.py"
    fixture.write_text(
        "import random\n"
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
        "\n"
        "def draw():\n"
        "    return random.Random(0).random()\n",
        encoding="utf-8",
    )
    assert main(["lint", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET002" in out
    assert f"{fixture}:5:" in out  # file:line of the wall-clock read


def test_lint_suppression_comment_restores_exit_zero(capsys, tmp_path):
    fixture = tmp_path / "suppressed.py"
    fixture.write_text(
        "import time\n"
        "t = time.time()  # detlint: disable=DET001\n",
        encoding="utf-8",
    )
    assert main(["lint", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "1 suppressed" in out


def test_lint_json_format(capsys, tmp_path):
    import json

    fixture = tmp_path / "bad.py"
    fixture.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main(["lint", "--format", "json", str(fixture)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_rule"] == {"DET001": 1}


def test_lint_cache_dir_reports_stats_and_identical_json(capsys, tmp_path):
    fixture = tmp_path / "bad.py"
    fixture.write_text("import time\nt = time.time()\n", encoding="utf-8")
    cache_dir = tmp_path / "lint_cache"
    assert main(
        ["lint", "--format", "json", "--cache-dir", str(cache_dir), str(fixture)]
    ) == 1
    cold = capsys.readouterr()
    assert main(
        ["lint", "--format", "json", "--cache-dir", str(cache_dir), str(fixture)]
    ) == 1
    warm = capsys.readouterr()
    # Findings JSON is byte-identical; the cache stats line goes to stderr.
    assert warm.out == cold.out
    assert "lint cache:" in warm.err
    assert "1/1 local hits" in warm.err


def test_lint_pass_perf_lists_info_with_show_info(capsys, tmp_path):
    fixture = tmp_path / "hot.py"
    fixture.write_text(
        "def fmt(peer):\n    return f'peer {peer}'\n", encoding="utf-8"
    )
    # Outside the hot set the finding is info: advisory, exit 0.
    assert main(["lint", "--pass", "perf", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "info" in out
    assert "PERF004" not in out  # not listed without --show-info
    assert main(["lint", "--pass", "perf", "--show-info", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "PERF004" in out


def test_lint_select_and_ignore(capsys, tmp_path):
    fixture = tmp_path / "bad.py"
    fixture.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main(["lint", "--ignore", "DET001", str(fixture)]) == 0
    capsys.readouterr()
    assert main(["lint", "--select", "DET002", str(fixture)]) == 0


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "DET008" in out


def test_lint_unknown_rule_id_is_usage_error(capsys):
    assert main(["lint", "--select", "DET999", "src"]) == 2
    assert "DET999" in capsys.readouterr().err


def test_lint_missing_path_is_usage_error(capsys):
    assert main(["lint", "/nonexistent/path/xyz"]) == 2

# ----------------------------------------------------------------------
# lint passes (semlint), baselines, invariant checking
# ----------------------------------------------------------------------


MIXED_FIXTURE = (
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
    "\n"
    "def is_fresh(rcn, last_seq):\n"
    "    return rcn.seq != last_seq\n"
)


def test_lint_pass_selection(capsys, tmp_path):
    fixture = tmp_path / "mixed.py"
    fixture.write_text(MIXED_FIXTURE, encoding="utf-8")

    assert main(["lint", "--pass", "det", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "SEM006" not in out

    assert main(["lint", "--pass", "sem", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "SEM006" in out and "DET001" not in out

    assert main(["lint", "--pass", "all", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "SEM006" in out


def test_lint_list_rules_includes_sem_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SEM001" in out and "SEM007" in out


def test_lint_baseline_record_and_compare(capsys, tmp_path):
    fixture = tmp_path / "legacy.py"
    fixture.write_text(MIXED_FIXTURE, encoding="utf-8")
    baseline = tmp_path / "lint-baseline.json"

    # Without a baseline the findings fail the run.
    assert main(["lint", str(fixture)]) == 1
    capsys.readouterr()

    # Record: writes the ledger and exits clean.
    assert (
        main(["lint", "--baseline", str(baseline), "--update-baseline", str(fixture)])
        == 0
    )
    capsys.readouterr()
    assert baseline.exists()

    # Compare: known findings are demoted, run is clean again.
    assert main(["lint", "--baseline", str(baseline), str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "2 baselined" in out

    # A new finding is NOT covered by the ledger.
    fixture.write_text(MIXED_FIXTURE + '\nfor name in {"a", "b"}:\n    pass\n',
                       encoding="utf-8")
    assert main(["lint", "--baseline", str(baseline), str(fixture)]) == 1
    assert "DET003" in capsys.readouterr().out


def test_lint_update_baseline_requires_baseline_path(capsys):
    assert main(["lint", "--update-baseline", "src"]) == 2
    assert "--baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# timerlint pass, --fail-on, timer audit
# ----------------------------------------------------------------------


TIMER_FIXTURE = (
    "from repro.sim.timers import Timer\n"
    "\n"
    "DELAY = 5.0\n"
    "\n"
    "def leak(engine, cb):\n"
    '    t = Timer(engine, cb, name="x", actor="r", tag="reuse")\n'
    "    t.start(DELAY)\n"
)

#: Fires only warning-severity rules (TIM007).
WARNING_FIXTURE = (
    "from repro.sim.timers import Timer\n"
    "\n"
    "def build(engine, cb):\n"
    '    return Timer(engine, cb, name="x")\n'
)


def test_lint_pass_tim_selection(capsys, tmp_path):
    fixture = tmp_path / "timers.py"
    fixture.write_text(MIXED_FIXTURE + "\n" + TIMER_FIXTURE, encoding="utf-8")

    assert main(["lint", "--pass", "tim", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "DET001" not in out and "SEM006" not in out

    assert main(["lint", "--pass", "all", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "DET001" in out and "SEM006" in out


def test_lint_list_rules_includes_tim_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "TIM001" in out and "TIM010" in out
    assert "TIM003 [warning]" in out


def test_lint_fail_on_exit_codes(capsys, tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(TIMER_FIXTURE, encoding="utf-8")
    warnings = tmp_path / "warnings.py"
    warnings.write_text(WARNING_FIXTURE, encoding="utf-8")

    # Default --fail-on warning: any finding fails.
    assert main(["lint", str(warnings)]) == 1
    capsys.readouterr()

    # --fail-on error: warning-only findings are reported but exit 0.
    assert main(["lint", "--fail-on", "error", str(warnings)]) == 0
    out = capsys.readouterr().out
    assert "TIM007" in out

    # ... while error findings still fail.
    assert main(["lint", "--fail-on", "error", str(errors)]) == 1
    capsys.readouterr()

    # --fail-on never: findings never fail the run.
    assert main(["lint", "--fail-on", "never", str(errors)]) == 0
    capsys.readouterr()

    # ... but parse errors always do.
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    assert main(["lint", "--fail-on", "never", str(broken)]) == 1
    capsys.readouterr()


def test_lint_fail_on_bad_value_is_usage_error(capsys):
    # ``--jobs`` belongs to the sweep executor; lint has one run path.
    for argv in (["--fail-on", "bogus"], ["--jobs", "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", *argv, "src"])
        assert excinfo.value.code == 2
    capsys.readouterr()


def test_lint_compare_against_empty_baseline(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    baseline = tmp_path / "empty-baseline.json"
    assert (
        main(["lint", "--baseline", str(baseline), "--update-baseline", str(clean)])
        == 0
    )
    capsys.readouterr()

    # An empty ledger demotes nothing: new findings still fail.
    dirty = tmp_path / "dirty.py"
    dirty.write_text(TIMER_FIXTURE, encoding="utf-8")
    assert main(["lint", "--baseline", str(baseline), str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "baselined" not in out


def test_simulate_audit_timers(capsys):
    code = main(
        [
            "simulate",
            "--nodes", "9",
            "--pulses", "1",
            "--seed", "11",
            "--audit-timers",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "timer audit" in out
    assert "ok (" in out and "transitions" in out


def test_simulate_check_invariants(capsys):
    assert (
        main(
            [
                "simulate",
                "--nodes",
                "9",
                "--pulses",
                "1",
                "--check-invariants",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "invariants" in out
    assert "ok (9 routers)" in out


def test_run_check_invariants(capsys):
    assert main(["run", "F3", "--check-invariants"]) == 0
    assert "F3" in capsys.readouterr().out


@pytest.mark.parametrize("experiment_id, episodes", [("FX1", 3), ("X8", 1)])
def test_run_check_invariants_reaches_bespoke_experiments(
    capsys, oracle_calls, experiment_id, episodes
):
    assert main(["run", experiment_id, "--check-invariants"]) == 0
    assert len(oracle_calls) == episodes


def test_run_options_do_not_outlive_the_call(capsys, oracle_calls):
    assert main(["run", "X6", "--check-invariants"]) == 0
    assert len(oracle_calls) == 4  # 2 series x 2 points
    assert main(["run", "X6"]) == 0
    assert len(oracle_calls) == 4


# ----------------------------------------------------------------------
# trace subcommand and smoke-digest verification
# ----------------------------------------------------------------------


def test_trace_small_mesh(capsys, tmp_path):
    out_path = tmp_path / "trace.jsonl"
    summary_path = tmp_path / "summary.json"
    code = main(
        [
            "trace",
            "--topology", "mesh",
            "--nodes", "16",
            "--pulses", "2",
            "--seed", "5",
            "--out", str(out_path),
            "--json", str(summary_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "causal trace summary" in out
    assert "trace digest" in out

    import json as _json

    from repro.trace import parse_jsonl

    records = parse_jsonl(out_path.read_text(encoding="utf-8"))
    assert records
    assert sum(1 for r in records if r.kind == "flap") == 4

    summary = _json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["records_total"] == len(records)


def test_trace_show_filters_by_kind(capsys):
    assert main(["trace", "--nodes", "9", "--pulses", "1", "--show", "2",
                 "--kinds", "flap"]) == 0
    out = capsys.readouterr().out
    assert '"kind":"flap"' in out
    assert '"kind":"send"' not in out


def test_trace_rejects_unknown_kind(capsys):
    assert main(["trace", "--nodes", "9", "--pulses", "1",
                 "--kinds", "nonsense"]) == 2
    assert "unknown kind" in capsys.readouterr().err


def test_run_smoke_digest_round_trip(capsys, tmp_path):
    digests = tmp_path / "digests.json"
    assert main(["run", "F8", "--smoke", "--write-digests", str(digests)]) == 0
    capsys.readouterr()
    assert main(["run", "F8", "--smoke", "--verify-digests", str(digests)]) == 0
    assert "all sweep digests match" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_ablation_digest_round_trip(capsys, tmp_path, jobs):
    """Ablation series sit under ``data["sweeps"]`` like the figures', so
    the digest (and CSV) machinery sees them."""
    import json as _json

    digests = tmp_path / "digests.json"
    assert main(["run", "X6", "--write-digests", str(digests)]) == 0
    recorded = _json.loads(digests.read_text(encoding="utf-8"))["X6"]
    assert {key: sorted(points) for key, points in recorded.items()} == {
        "immediate": ["1", "3"],
        "rate-limited": ["1", "3"],
    }
    assert main(["run", "X6", "--jobs", jobs, "--verify-digests", str(digests)]) == 0


def test_run_smoke_digest_mismatch_fails(capsys, tmp_path):
    import json as _json

    digests = tmp_path / "digests.json"
    assert main(["run", "F8", "--smoke", "--write-digests", str(digests)]) == 0
    payload = _json.loads(digests.read_text(encoding="utf-8"))
    series = next(iter(payload["F8"]))
    payload["F8"][series]["1"] = "0" * 64
    digests.write_text(_json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "F8", "--smoke", "--verify-digests", str(digests)]) == 1
    assert "digest mismatch" in capsys.readouterr().err


def test_committed_smoke_digests_match_current_code(capsys):
    """The expectation file CI pins the smoke sweep to must track the
    simulator: if this fails, regenerate it with
    ``rfd-repro run F8 --smoke --write-digests benchmarks/results/f8_smoke_digests.json``."""
    import pathlib

    committed = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "f8_smoke_digests.json"
    )
    assert main(["run", "F8", "--smoke", "--verify-digests", str(committed)]) == 0
    assert "all sweep digests match" in capsys.readouterr().out


def test_run_smoke_with_jobs_matches_committed_digests(capsys):
    """``--jobs`` must not move a digest: the parallel smoke sweep still
    matches the committed F8 expectation file."""
    import pathlib

    committed = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "f8_smoke_digests.json"
    )
    assert (
        main(
            [
                "run", "F8", "--smoke",
                "--jobs", "2",
                "--verify-digests", str(committed),
            ]
        )
        == 0
    )
    assert "all sweep digests match" in capsys.readouterr().out
