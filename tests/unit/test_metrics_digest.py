"""Unit tests for run digests and experiment CSV export."""

from __future__ import annotations

import csv

from repro.experiments.base import small_mesh_config
from repro.experiments.export import export_result, write_csv
from repro.experiments.table1 import table1_experiment
from repro.metrics.digest import collector_fingerprint_lines, run_digest
from repro.workload.scenarios import run_episode


class TestDigest:
    def test_same_seed_same_digest(self):
        a = run_episode(small_mesh_config(seed=5), pulses=1)
        b = run_episode(small_mesh_config(seed=5), pulses=1)
        assert run_digest(a.collector) == run_digest(b.collector)

    def test_different_seed_different_digest(self):
        a = run_episode(small_mesh_config(seed=5), pulses=1)
        b = run_episode(small_mesh_config(seed=6), pulses=1)
        assert run_digest(a.collector) != run_digest(b.collector)

    def test_different_workload_different_digest(self):
        a = run_episode(small_mesh_config(seed=5), pulses=1)
        b = run_episode(small_mesh_config(seed=5), pulses=2)
        assert run_digest(a.collector) != run_digest(b.collector)

    def test_fingerprint_covers_all_event_kinds(self):
        result = run_episode(small_mesh_config(seed=5), pulses=1)
        lines = collector_fingerprint_lines(result.collector)
        kinds = {line[0] for line in lines}
        assert kinds == {"U", "S", "R"}

    def test_digest_is_hex_sha256(self):
        result = run_episode(small_mesh_config(seed=5), pulses=0)
        digest = run_digest(result.collector)
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


class TestExport:
    def test_write_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_export_table_result(self, tmp_path):
        result = table1_experiment()
        written = export_result(result, tmp_path)
        assert (tmp_path / "T1.csv").exists()
        assert written[0].name == "T1.csv"
        with (tmp_path / "T1.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["Damping Parameters", "Cisco", "Juniper"]
        assert len(rows) == 8  # header + 7 parameter rows

    def test_export_sweep_result(self, tmp_path):
        from repro.experiments.base import RunOptions
        from repro.experiments.registry import run_experiment

        result = run_experiment("F8", RunOptions(pulse_counts=(1,)))
        written = export_result(result, tmp_path)
        names = {path.name for path in written}
        assert "F8.csv" in names
        assert "F8_no_damping_mesh.csv" in names
        assert "F8_full_damping_mesh.csv" in names
        with (tmp_path / "F8_full_damping_mesh.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "pulses"
        assert rows[1][0] == "1"

    def test_export_series(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, ["time_s", "penalty"], [(0.0, 1.0), (5.0, 2.0)])
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time_s", "penalty"]
        assert rows[2] == ["5.0", "2.0"]

    def test_export_creates_directories(self, tmp_path):
        nested = tmp_path / "deep" / "dir"
        result = table1_experiment()
        export_result(result, nested)
        assert (nested / "T1.csv").exists()
