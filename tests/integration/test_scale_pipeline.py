"""Integration tests for the internet-scale pipeline: generate → save →
ingest → episode, delivery coalescing's digest identity (scale episodes
always coalesce; ``ScenarioConfig.coalesce_delivery`` is the one switch),
and the ``rfd-repro topo`` subcommands end to end.

Graph sizes here are deliberately small (tens to low hundreds of
nodes): tier-1 exercises the machinery, the benchmarks exercise the
scale."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.scale import run_scale_episode
from repro.topology.io import load_topology, save_topology
from repro.topology.scale import powerlaw_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig
from repro.metrics.digest import run_digest


def _episode_digest(topology, coalesce: bool) -> str:
    config = ScenarioConfig(topology=topology, seed=0, coalesce_delivery=coalesce)
    scenario = Scenario(config)
    scenario.warm_up()
    result = scenario.run(PulseSchedule.regular(2))
    return run_digest(result.collector)


def test_coalesced_delivery_is_digest_identical():
    """Batched link delivery must not change observable metrics: the
    digest-identity contract that lets scale runs default to coalescing."""
    topology = powerlaw_topology(60, seed=3)
    assert _episode_digest(topology, coalesce=True) == _episode_digest(
        topology, coalesce=False
    )


def test_scale_episode_is_deterministic_and_measured():
    first = run_scale_episode(nodes=80)
    second = run_scale_episode(nodes=80)
    assert first.digest == second.digest
    assert first.events == second.events
    assert first.events > 0
    assert first.peak_rss_bytes > 0
    assert first.nodes == 80
    assert first.coalesce_delivery is True


def test_episode_digest_survives_save_load_round_trip(tmp_path):
    generated = powerlaw_topology(60, seed=3, with_relationships=True)
    path = tmp_path / "g.json"
    save_topology(generated, path)
    loaded = load_topology(path)
    direct = run_scale_episode(topology=generated)
    via_file = run_scale_episode(topology=loaded)
    assert direct.digest == via_file.digest


def test_topo_gen_ingest_stats_cli_round_trip(tmp_path, capsys):
    topo_json = tmp_path / "gen.json"
    caida = tmp_path / "gen.txt"
    code = main(
        [
            "topo", "gen",
            "--nodes", "80",
            "--seed", "3",
            "--relationships",
            "--out", str(topo_json),
            "--caida-out", str(caida),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "powerlaw-80" in out

    ingested = tmp_path / "ingested.json"
    assert main(["topo", "ingest", str(caida), "--out", str(ingested)]) == 0
    capsys.readouterr()

    # Stats agree between the generated JSON and the CAIDA round-trip.
    assert main(["topo", "stats", str(topo_json), "--json"]) == 0
    from_json = json.loads(capsys.readouterr().out)
    assert main(["topo", "stats", str(ingested), "--json"]) == 0
    from_caida = json.loads(capsys.readouterr().out)
    assert from_json["nodes"] == from_caida["nodes"] == 80
    assert from_json["edges"] == from_caida["edges"]
    assert from_json["provider_edges"] == from_caida["provider_edges"]


def test_topo_gen_caida_out_requires_relationships(tmp_path, capsys):
    code = main(
        ["topo", "gen", "--nodes", "50", "--caida-out", str(tmp_path / "x.txt")]
    )
    assert code == 2
    assert "relationships" in capsys.readouterr().err.lower()


def test_topo_ingest_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1|2|-1\nmangled\n", encoding="utf-8")
    assert main(["topo", "ingest", str(bad)]) == 2
    assert "mangled" in capsys.readouterr().err


def test_topo_bench_digest_verification(tmp_path, capsys):
    mem = tmp_path / "mem.json"
    digests = tmp_path / "digests.json"
    base = [
        "topo", "bench",
        "--nodes", "60",
        "--pulses", "1",
    ]
    assert main(base + ["--json", str(mem), "--write-digests", str(digests)]) == 0
    capsys.readouterr()
    payload = json.loads(mem.read_text(encoding="utf-8"))
    assert payload["nodes"] == 60
    assert payload["peak_rss_bytes"] > 0
    assert len(payload["digest"]) == 64

    # Same invocation verifies against what it just recorded...
    assert main(base + ["--verify-digests", str(digests)]) == 0
    capsys.readouterr()
    # ...and a different workload fails verification (key miss).
    code = main(base[:-1] + ["2", "--verify-digests", str(digests)])
    assert code == 1
    assert "digest" in capsys.readouterr().err.lower()

