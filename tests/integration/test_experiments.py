"""Integration tests for the experiment drivers (reduced pulse grids keep
these fast; the full grids run in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import RunOptions, SweepSeries, mesh100_config, run_sweep
from repro.experiments.fig3 import fig3_experiment
from repro.experiments.fig7 import fig7_experiment
from repro.experiments.fig8_9 import critical_pulse_count
from repro.experiments.fig10 import fig10_experiment
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.table1 import table1_experiment

REDUCED = RunOptions(pulse_counts=(1, 3, 5))


@pytest.fixture(scope="module")
def shared_series():
    """F8, F9, F13 and F14 share their series, as in one ``run`` call."""
    return {}


def test_table1_rows_match_paper():
    result = table1_experiment()
    values = {row[0]: (row[1], row[2]) for row in result.rows}
    assert values["Withdrawal Penalty (P_W)"] == (1000.0, 1000.0)
    assert values["Re-announcement Penalty (P_A)"] == (0.0, 1000.0)
    assert values["Cut-off Threshold (P_cut)"] == (2000.0, 3000.0)
    assert "T1" in result.render()


def test_fig3_penalty_curve_shape():
    result = fig3_experiment()
    samples = dict(result.data["samples"])
    assert samples[0.0] == pytest.approx(1000.0)  # first withdrawal
    assert max(samples.values()) > 2000.0  # crosses the cutoff
    assert samples[2640.0] < 750.0  # decayed below reuse by the end
    assert result.data["suppressed_at"] is not None
    assert result.data["reuse_at"] > result.data["suppressed_at"]


def test_fig7_secondary_charging_trace():
    result = fig7_experiment()
    assert result.data["recharges"], "expected reuse-timer recharges"
    record = result.data["record"]
    assert record.ended is not None
    # The entry was reused later than charging alone would predict.
    assert len(result.data["recharges"]) >= 1
    assert result.data["convergence_time"] > 1000.0
    assert "F7" in result.render()


def test_fig8_shape(shared_series):
    result = run_experiment("F8", REDUCED, shared_series)
    data = result.data
    mesh = data["sweeps"]["full_damping_mesh"]
    calc = data["calculation"]
    # Below the critical point: measured >> calculated.
    assert mesh.point(1).convergence_time > 3 * max(calc[1], 1.0)
    # At/after the critical point: measured ~= calculated.
    assert mesh.point(5).convergence_time == pytest.approx(calc[5], rel=0.10)
    # No-damping convergence stays small everywhere.
    for point in data["sweeps"]["no_damping_mesh"].points:
        assert point.convergence_time < 300.0
    assert len(result.rows) == len(REDUCED.pulse_counts)


def test_fig9_shape(shared_series):
    result = run_experiment("F9", REDUCED, shared_series)
    no_damping = result.data["sweeps"]["no_damping_mesh"]
    damping = result.data["sweeps"]["full_damping_mesh"]
    assert no_damping.point(5).message_count > no_damping.point(1).message_count
    # Damping caps messages below no-damping at large n.
    assert damping.point(5).message_count < no_damping.point(5).message_count


def test_critical_pulse_count_is_five(shared_series):
    sweeps = run_experiment("F8", REDUCED, shared_series).data["sweeps"]
    assert critical_pulse_count(sweeps) == 5


def test_fig10_structure():
    result = fig10_experiment(pulse_counts=(1, 3))
    assert set(result.data) == {"n1", "n3"}
    n1 = result.data["n1"]
    assert sum(c for _, c in n1["update_series"]) == n1["result"].message_count
    peak = max(c for _, c in n1["damped_series"])
    assert peak == n1["result"].summary.peak_damped_links
    assert n1["phases"]


def test_fig13_rcn_tracks_calculation(shared_series):
    result = run_experiment("F13", REDUCED, shared_series)
    rcn = result.data["sweeps"]["damping_rcn"]
    calc = result.data["calculation"]
    assert rcn.point(3).convergence_time == pytest.approx(calc[3], rel=0.10)
    assert rcn.point(5).convergence_time == pytest.approx(calc[5], rel=0.10)
    # n=1 with RCN: no suppression, fast convergence.
    assert rcn.point(1).convergence_time < 300.0

    executed = len(shared_series)
    result14 = run_experiment("F14", REDUCED, shared_series)
    assert len(shared_series) == executed  # F14 re-ran nothing
    plain = result14.data["sweeps"]["full_damping_mesh"]
    rcn14 = result14.data["sweeps"]["damping_rcn"]
    assert rcn14.point(5).message_count > plain.point(5).message_count


def test_fig15_policy_reduces_suppression():
    result = run_experiment("F15", RunOptions(pulse_counts=(1, 3)))
    with_policy = result.data["sweeps"]["with_policy"]
    no_policy = result.data["sweeps"]["no_policy"]
    for n in (1, 3):
        assert with_policy.point(n).suppressions < no_policy.point(n).suppressions
        assert with_policy.point(n).message_count < no_policy.point(n).message_count


def test_ablation_flap_interval():
    result = run_experiment("X1", RunOptions(pulse_counts=(3,)))
    assert len(result.rows) == 4
    by_interval = {row[0]: row for row in result.rows}
    # Longer intervals decay the penalty more between flaps: the intended
    # (ISP-side) convergence delay at the same pulse count shrinks.
    assert by_interval[240.0][5] < by_interval[60.0][5]


def test_ablation_partial_deployment():
    result = run_experiment("X2", RunOptions(pulse_counts=(1,)))
    by_fraction = {row[0]: row for row in result.rows}
    assert by_fraction["25%"][4] < by_fraction["100%"][4]  # fewer suppressions


def test_ablation_vendor_params():
    result = run_experiment("X3", RunOptions(pulse_counts=(1, 3)))
    vendors = {row[0] for row in result.rows}
    assert vendors == {"cisco", "juniper"}


def test_ablation_selective_damping():
    result = run_experiment("X4", RunOptions(pulse_counts=(1,)))
    row = result.rows[0]
    plain_sec, selective_sec, rcn_sec = row[4], row[5], row[6]
    # RCN eliminates secondary charging; selective does not.
    assert rcn_sec == 0
    assert selective_sec > 0
    assert plain_sec > 0


@pytest.mark.parametrize("experiment_id", ["T1", "F3", "F7", "F10", "X5", "X7", "X8", "FX1"])
def test_rendering_matches_committed_result(experiment_id):
    """The fast experiments render byte-identically to the committed
    ``benchmarks/results/<id>.txt`` (CI checks the sweeps the same way)."""
    import pathlib

    committed = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / f"{experiment_id}.txt"
    )
    assert run_experiment(experiment_id).render() + "\n" == committed.read_text(
        encoding="utf-8"
    )


def test_registry_contains_all_artefacts():
    ids = list_experiments()
    for required in ("T1", "F3", "F7", "F8", "F9", "F10", "F13", "F14", "F15"):
        assert required in ids
    assert get_experiment("f8") is EXPERIMENTS["F8"]
    with pytest.raises(ExperimentError):
        get_experiment("F99")


def test_sweep_series_helpers():
    series = run_sweep("label", mesh100_config(damping=None, seed=1), [0, 1])
    assert series.label == "label"
    assert [p for p, _ in series.convergence()] == [0, 1]
    assert [p for p, _ in series.messages()] == [0, 1]
    with pytest.raises(ExperimentError):
        series.point(99)
    assert isinstance(series, SweepSeries)
