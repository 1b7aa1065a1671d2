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
    "lint --update-baseline src",  # the flag is gone: an argparse usage error
    "topo gen --nodes 100 --caida-out x",
    "topo bench --topology-file /nonexistent.json",
    "topo bench --nodes 60 --no-coalesce",  # the flag is gone: an argparse usage error
    "faults run examples/faults_demo.json --nodes 9",
    "faults run examples/faults_demo.json --nodes 25 --jobs 2 --point-timeout nan",
    "faults run examples/faults_demo.json --nodes 25 --jobs 2 --point-timeout inf",
    "faults run examples/faults_demo.json --nodes 25 --jobs 2 --point-timeout 0",
    "intended --interval nan --pulses 3",
    "intended --interval inf --pulses 3",
    "intended --tup nan",
    "simulate --nodes 9 --interval nan",
    "simulate --nodes 9 --interval inf",
    "trace --nodes 9 --pulses 1 --interval nan",
    "topo bench --nodes 60 --pulses 1 --interval nan",
    "simulate --nodes -4 --pulses 1",
    "simulate --nodes 0",
    "simulate --nodes 10",  # not a square: no silent 3x3 mesh
    "trace --nodes 9 --pulses 1 --show -1",
    "faults template --nodes -4",
    "intended --pulses -3",
    "faults run examples/faults_demo.json --nodes 25 --pulses -2",
    "lint --cache-dir x src",  # the flag is gone: an argparse usage error
    "simulate --nodes 25 --pulses 1 --faults examples/faults_demo.json --graceful-restart nan",
    "simulate --nodes 25 --pulses 1 --faults examples/faults_demo.json --graceful-restart inf",
    "faults run examples/faults_demo.json --nodes 25 --graceful-restart nan",
    "simulate --graceful-restart nan",
    "topo gen --nodes 50 --exponent nan",
    "topo gen --nodes 50 --exponent inf",
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
    if invocation in (
        "simulate --jobs -1",
        "lint --update-baseline src",
        "lint --cache-dir x src",
        "topo bench --nodes 60 --no-coalesce",
    ):
        assert lines[-1].startswith("rfd-repro: error: ")
    else:
        assert len(lines) == 1 and lines[0].startswith(f"rfd-repro {argv[0]}: ")


def test_plan_with_nan_time_exits_2_at_load(capsys, in_repo_root, tmp_path):
    """``NaN`` is refused by the plan loader, before any warm-up runs."""
    with open("examples/faults_demo.json", encoding="utf-8") as handle:
        text = handle.read()
    plan = tmp_path / "nan.json"
    plan.write_text(text.replace('"at": 150.0', '"at": NaN', 1))
    assert main(["faults", "run", str(plan), "--nodes", "25", "--pulses", "1"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "NaN is not a finite number" in lines[0]


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_read_json_rejects_non_finite_tokens(tmp_path, token):
    from repro.cli import _read_json
    from repro.errors import ConfigurationError

    path = tmp_path / "digests.json"
    path.write_text('{"T1": {"x": %s}}' % token)
    with pytest.raises(ConfigurationError, match=f"{token} is not a finite number"):
        _read_json(str(path))


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
# lint subcommand
# ----------------------------------------------------------------------


def test_lint_clean_tree_exits_zero(capsys):
    import pathlib

    import repro

    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    assert main(["lint", str(src_dir)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_seeded_violation_exits_nonzero(capsys, tmp_path):
    """Acceptance: a DET002/DET010 fixture fails with rule id and file:line."""
    fixture = tmp_path / "violations.py"
    fixture.write_text(
        "import multiprocessing\n"
        "import random\n"
        "\n"
        "def draw():\n"
        "    return random.Random(0).random()\n",
        encoding="utf-8",
    )
    assert main(["lint", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "DET010" in out
    assert f"{fixture}:5:" in out  # file:line of the literal-seeded stream


def test_lint_suppression_comment_restores_exit_zero(capsys, tmp_path):
    fixture = tmp_path / "suppressed.py"
    fixture.write_text(
        "import random\n"
        "r = random.random()  # lint: disable=DET002\n",
        encoding="utf-8",
    )
    assert main(["lint", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "1 suppressed" in out


def test_lint_json_format(capsys, tmp_path):
    import json

    fixture = tmp_path / "bad.py"
    fixture.write_text("import random\nr = random.random()\n", encoding="utf-8")
    assert main(["lint", "--format", "json", str(fixture)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_rule"] == {"DET002": 1}


def test_lint_select_and_ignore(capsys, tmp_path):
    fixture = tmp_path / "bad.py"
    fixture.write_text("import random\nr = random.random()\n", encoding="utf-8")
    assert main(["lint", "--ignore", "DET002", str(fixture)]) == 0
    capsys.readouterr()
    assert main(["lint", "--select", "DET010", str(fixture)]) == 0


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET002" in out and "DET010" in out


def test_lint_unknown_rule_id_is_usage_error(capsys):
    assert main(["lint", "--select", "DET999", "src"]) == 2
    assert "DET999" in capsys.readouterr().err


def test_lint_missing_path_is_usage_error(capsys):
    assert main(["lint", "/nonexistent/path/xyz"]) == 2


def test_lint_exit_contract(capsys, tmp_path):
    """0 clean, 1 on any finding or parse error — every finding blocks."""
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert main(["lint", str(clean)]) == 0
    timers = tmp_path / "timers.py"
    timers.write_text(TIMER_FIXTURE, encoding="utf-8")
    assert main(["lint", str(timers)]) == 1
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    assert main(["lint", str(broken)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# lint pass selection, invariant checking
# ----------------------------------------------------------------------


MIXED_FIXTURE = (
    "import heapq\n"
    "import random\n"
    "\n"
    "def draw():\n"
    "    return random.random()\n"
    "\n"
    "def arm(queue, item):\n"
    "    heapq.heappush(queue, item)\n"
)


def test_lint_pass_selection(capsys, tmp_path):
    fixture = tmp_path / "mixed.py"
    fixture.write_text(MIXED_FIXTURE, encoding="utf-8")

    assert main(["lint", "--pass", "det", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "SEM002" not in out

    assert main(["lint", "--pass", "sem", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "SEM002" in out and "DET002" not in out

    assert main(["lint", "--pass", "all", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "SEM002" in out


def test_lint_list_rules_includes_sem_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SEM001" in out and "SEM007" in out


# ----------------------------------------------------------------------
# timerlint pass, timer audit
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


def test_lint_pass_tim_selection(capsys, tmp_path):
    fixture = tmp_path / "timers.py"
    fixture.write_text(MIXED_FIXTURE + "\n" + TIMER_FIXTURE, encoding="utf-8")

    assert main(["lint", "--pass", "tim", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "DET002" not in out and "SEM002" not in out

    assert main(["lint", "--pass", "all", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "DET002" in out and "SEM002" in out


def test_lint_list_rules_includes_tim_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "TIM001" in out and "TIM006" in out


def test_lint_fail_on_bad_value_is_usage_error(capsys):
    # ``--jobs`` belongs to the sweep executor; lint has one run path.
    # Every finding blocks and there is no baseline, so the severity and
    # baseline options are unknown flags.
    for argv in (
        ["--fail-on", "bogus"],
        ["--fail-on", "warning"],
        ["--show-info"],
        ["--baseline", "lint-baseline.json"],
        ["--update-baseline"],
        ["--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", *argv, "src"])
        assert excinfo.value.code == 2
    capsys.readouterr()


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
    assert "windowed_comparison" not in summary
    shocks = summary["after_shocks"]
    assert sum(row[2] for row in shocks) == summary["postponements"]["by_class"]["reuse"]


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


@pytest.mark.parametrize("document", ["[1, 2]", '"ledger"', "3"])
def test_verify_digests_rejects_a_ledger_that_is_not_an_object(
    capsys, tmp_path, document
):
    ledger = tmp_path / "list.json"
    ledger.write_text(document, encoding="utf-8")
    assert main(["run", "T1", "--verify-digests", str(ledger)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rfd-repro run: ")
    assert "expected a JSON object" in lines[0]


def test_topo_bench_leaves_a_malformed_ledger_untouched(capsys, tmp_path):
    """Only a missing ledger starts a fresh one: recording into a file
    that does not parse is bad input, and the file keeps its bytes."""
    ledger = tmp_path / "ledger.json"
    ledger.write_bytes(b'{"a": ')
    argv = ["topo", "bench", "--nodes", "60", "--pulses", "1"]
    assert main(argv + ["--write-digests", str(ledger)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rfd-repro topo: ")
    assert ledger.read_bytes() == b'{"a": '


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
