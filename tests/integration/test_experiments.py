"""Integration tests for the experiment table: lookup, series sharing,
the committed renderings and Figure 10's bookkeeping. What the results
claim is checked row by row in ``test_paper_claims.py``."""

from __future__ import annotations

import pathlib

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import RunOptions, SweepSeries
from repro.experiments.registry import (
    EXPERIMENTS,
    Bespoke,
    get_experiment,
    list_experiments,
    run_experiment,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_experiments_share_their_series(experiment_result, series_cache):
    """F13 sweeps F8's series plus RCN; F14 then re-runs nothing."""
    f13 = experiment_result("F13")
    counts = f13.data["pulse_counts"]
    assert [row[0] for row in f13.rows] == counts
    executed = len(series_cache)
    f14 = run_experiment("F14", RunOptions(pulse_counts=tuple(counts)), series_cache)
    assert len(series_cache) == executed
    for key, series in f14.data["sweeps"].items():
        assert series is f13.data["sweeps"][key]


@pytest.mark.parametrize(
    "experiment_id", [key for key, entry in EXPERIMENTS.items() if isinstance(entry, Bespoke)]
)
def test_rendering_matches_committed_result(experiment_id, experiment_result):
    """The experiments that are not sweeps render byte-identically to the
    committed ``benchmarks/results/<id>.txt`` (the golden-renderings
    benchmark checks the sweeps the same way)."""
    committed = (RESULTS_DIR / f"{experiment_id}.txt").read_text(encoding="utf-8")
    assert experiment_result(experiment_id).render() + "\n" == committed


def test_fig10_structure(experiment_result):
    """Each panel's update bins sum to the message count and its damped
    series peaks at the summary's peak."""
    data = experiment_result("F10").data
    assert set(data) == {"n1", "n3", "n5"}
    for panel in data.values():
        result = panel["result"]
        assert sum(count for _, count in panel["update_series"]) == result.message_count
        peak = max(count for _, count in panel["damped_series"])
        assert peak == result.summary.peak_damped_links


def test_registry_contains_all_artefacts():
    ids = list_experiments()
    for required in ("T1", "F3", "F7", "F8", "F9", "F10", "F13", "F14", "F15"):
        assert required in ids
    assert get_experiment("f8") is EXPERIMENTS["F8"]
    with pytest.raises(ExperimentError):
        get_experiment("F99")


def test_sweep_series_helpers():
    series = SweepSeries("label")
    assert series.label == "label"
    with pytest.raises(ExperimentError):
        series.point(99)


#: The tests this file held before the claims table, each now the rows
#: that carry its asserts; the names stay, as tests of those rows.
FORMER_TESTS = {
    "test_table1_rows_match_paper": ("T1-vendor-defaults",),
    "test_fig3_penalty_curve_shape": (
        "F3-withdrawal-step", "F3-crosses-cutoff", "F3-decays-below-reuse",
        "F3-reuse-after-suppression",
    ),
    "test_fig7_secondary_charging_trace": (
        "F7-reuse-postponed", "F7-suppression-ends", "F7-convergence",
    ),
    "test_fig8_shape": ("F8-n1-above-intended", "F8-past-nh", "F8-nodamp-fast"),
    "test_fig9_shape": ("F9-nodamp-increasing", "F9-damping-caps"),
    "test_critical_pulse_count_is_five": ("F8-nh",),
    "test_fig13_rcn_tracks_calculation": (
        "F13-rcn-tracks-calc", "F13-rcn-small-n-fast", "F14-rcn-more-than-plain",
    ),
    "test_fig15_policy_reduces_suppression": (
        "F15-policy-fewer-suppressions", "F15-policy-fewer-messages",
    ),
    "test_ablation_flap_interval": ("X1-longer-interval-less-delay",),
    "test_ablation_partial_deployment": ("X2-partial-fewer-suppressions",),
    "test_ablation_vendor_params": ("X3-vendors-differ", "X3-both-suppress"),
    "test_ablation_selective_damping": (
        "X4-rcn-no-secondary", "X4-selective-secondary", "X4-plain-secondary",
    ),
}


def _rows_test(claim_ids):
    def test(claims_hold):
        claims_hold(*claim_ids)

    return test


for _name, _claim_ids in FORMER_TESTS.items():
    globals()[_name] = _rows_test(_claim_ids)
