"""Smoke test of the repo benchmark: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): it runs every
workload once per child plus the traced pass, about three minutes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _entry in (ROOT, os.path.join(ROOT, "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
EPISODE_WORKLOADS = ("mesh100_damped", "mesh100_nodamp", "powerlaw1k_coalesced")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def result_line(*args: str) -> dict:
    return json.loads(bench(*args).stdout.strip().splitlines()[-1])


def test_contract_names_are_well_formed_and_unique():
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(CONTRACT["workloads"]) + len(CONTRACT["end_to_end"]) + len(
        CONTRACT["per_layer"]
    )
    assert len(set(names)) == len(names)
    assert "setup_s" in END_TO_END
    assert CONTRACT["paths"] == ["bench"]
    for workload in WORKLOADS:
        assert os.path.isfile(os.path.join(ROOT, "bench", "expected", f"{workload}.json"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_reports_every_end_to_end_metric(workload):
    # --seconds 0: every child stops after its first sample.
    result = result_line("--workload", workload, "--seed", "42", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_per_layer_metric(workload):
    result = result_line("--workload", workload, "--seed", "42", "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert value["bench.span_cost_ns"] > 0
    assert value["bench.host_calib_s"] > 0
    assert value["sim.engine.events"] > 0
    if workload in EPISODE_WORKLOADS:
        assert value["bench.labelled_share"] >= 0.95
    if workload == "mesh100_nodamp":
        damping = [n for n in value if n.startswith("core.damping.") or n.startswith("core.penalty.")]
        assert damping and all(value[name] == 0 for name in damping)
    else:
        assert value["core.damping.record_update.calls"] > 0
    if workload == "powerlaw1k_coalesced":
        assert value["net.link.msgs_per_deliver_event"] > 1.0
    else:
        assert value["net.link.msgs_per_deliver_event"] == 1.0
    if workload == "fig8_sweep":
        assert value["workload.scenarios.cache_misses"] == 3
        assert value["workload.scenarios.cache_hits"] == 33
        assert value["workload.scenarios.snapshot_restore.calls"] == 33
    with open(os.path.join(ROOT, "bench", "out", f"trace-{workload}.json")) as handle:
        trace = json.load(handle)
    assert trace["spans"] and len(trace["spans"][0]) == len(trace["span_fields"])


def test_table_form_prints_every_name():
    text = bench("--workload", "mesh100_damped", "--seconds", "0").stdout
    for name in ["mesh100_damped", "failed_share", *END_TO_END, *PER_LAYER]:
        assert name in text


def test_other_seed_runs_clean_through_repeat_agreement():
    result = result_line("--workload", "mesh100_nodamp", "--seed", "7", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0


def test_no_shim_survives_tracing():
    from bench import trace

    assert trace.shims_installed() == []
    with trace.tracing(trace.Recorder()):
        assert trace.shims_installed()
    assert trace.shims_installed() == []
    with pytest.raises(ZeroDivisionError):
        with trace.tracing(trace.Recorder()):
            1 / 0
    assert trace.shims_installed() == []
