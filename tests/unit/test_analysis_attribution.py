"""Unit tests for recharge attribution (secondary-charging analysis)."""

from __future__ import annotations

import pytest

from repro.analysis.attribution import (
    AttributionReport,
    attribute_recharges,
    suppression_extension_seconds,
)
from repro.core.damping import ReuseEvent, SuppressionRecord
from repro.core.params import CISCO_DEFAULTS
from repro.errors import ConfigurationError


def record(recharges, started=0.0, ended=None, penalty=3000.0):
    return SuppressionRecord(
        peer="p",
        prefix="d",
        started=started,
        penalty_at_start=penalty,
        ended=ended,
        recharges=list(recharges),
    )


def reuse(time, noisy=True):
    return ReuseEvent(time=time, peer="x", prefix="d", noisy=noisy)


def test_recharge_after_noisy_reuse_is_secondary_charging():
    report = attribute_recharges(
        {"r1": [record([1010.0])]},
        [reuse(1000.0)],
        flap_times=[0.0, 60.0],
        window=60.0,
    )
    assert report.total == 1
    assert report.reuse_caused == 1
    assert report.attributions[0].cause == "reuse"
    assert report.attributions[0].reuse_time == 1000.0
    assert report.secondary_fraction == 1.0


def test_recharge_during_flapping_attributed_to_flap():
    report = attribute_recharges(
        {"r1": [record([65.0])]},
        [],
        flap_times=[0.0, 60.0],
        window=60.0,
    )
    assert report.flap_caused == 1
    assert report.secondary_fraction == 0.0


def test_overlapping_causes_are_mixed():
    report = attribute_recharges(
        {"r1": [record([70.0])]},
        [reuse(50.0)],
        flap_times=[60.0],
        window=60.0,
    )
    assert report.mixed == 1
    assert report.secondary_fraction == 1.0  # reuse is a possible cause


def test_silent_reuses_cannot_cause_recharges():
    report = attribute_recharges(
        {"r1": [record([1010.0])]},
        [reuse(1000.0, noisy=False)],
        flap_times=[0.0],
        window=60.0,
    )
    assert report.unattributed == 1


def test_cause_outside_window_is_unattributed():
    report = attribute_recharges(
        {"r1": [record([2000.0])]},
        [reuse(1000.0)],
        flap_times=[0.0],
        window=60.0,
    )
    assert report.unattributed == 1


def test_latest_cause_wins():
    report = attribute_recharges(
        {"r1": [record([1050.0])]},
        [reuse(1000.0), reuse(1040.0)],
        flap_times=[],
        window=60.0,
    )
    assert report.attributions[0].reuse_time == 1040.0


def test_fanout_by_reuse_event():
    records = {
        "r1": [record([1010.0, 2010.0])],
        "r2": [record([1015.0])],
    }
    report = attribute_recharges(
        records, [reuse(1000.0), reuse(2000.0)], flap_times=[], window=60.0
    )
    fanout = report.fanout_by_reuse_event()
    assert fanout[0] == (1000.0, 2)
    assert fanout[1] == (2000.0, 1)


def test_attributions_sorted_by_time():
    records = {
        "r1": [record([500.0])],
        "r2": [record([100.0])],
    }
    report = attribute_recharges(records, [reuse(90.0), reuse(490.0)], [], window=60.0)
    times = [a.time for a in report.attributions]
    assert times == sorted(times)


def test_empty_report():
    report = AttributionReport()
    assert report.total == 0
    assert report.secondary_fraction == 0.0
    assert report.fanout_by_reuse_event() == []


def test_window_validation():
    with pytest.raises(ConfigurationError):
        attribute_recharges({}, [], [], window=0.0)


class TestSuppressionExtension:
    def test_no_recharge_no_extension(self):
        rec = record([], started=0.0, penalty=3000.0)
        rec.ended = CISCO_DEFAULTS.reuse_delay(3000.0)
        assert suppression_extension_seconds([rec], CISCO_DEFAULTS) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_extension_measured(self):
        baseline = CISCO_DEFAULTS.reuse_delay(3000.0)
        rec = record([100.0], started=0.0, penalty=3000.0, ended=baseline + 500.0)
        assert suppression_extension_seconds([rec], CISCO_DEFAULTS) == pytest.approx(
            500.0, rel=1e-6
        )

    def test_ongoing_suppression_ignored(self):
        rec = record([100.0], started=0.0, penalty=3000.0, ended=None)
        assert suppression_extension_seconds([rec], CISCO_DEFAULTS) == 0.0

    def test_sums_over_records(self):
        baseline = CISCO_DEFAULTS.reuse_delay(3000.0)
        records = [
            record([], started=0.0, penalty=3000.0, ended=baseline + 100.0),
            record([], started=0.0, penalty=3000.0, ended=baseline + 200.0),
        ]
        assert suppression_extension_seconds(records, CISCO_DEFAULTS) == pytest.approx(
            300.0, rel=1e-6
        )


def test_end_to_end_attribution_on_real_run():
    """On a real single-pulse mesh run, most recharges are attributable
    to reuse waves — the paper's secondary-charging claim, verified
    causally rather than by timing alone."""
    from repro.analysis.attribution import analyze_run
    from repro.experiments.base import small_mesh_config
    from repro.workload.scenarios import run_episode

    result = run_episode(small_mesh_config(seed=3), pulses=1)
    report = analyze_run(result)
    assert report.total == result.summary.secondary_charges
    # After the origin's final announcement (+window), flaps can no longer
    # explain recharges — reuse waves must.
    late = [a for a in report.attributions if a.time > result.flap_times[-1] + 60.0]
    assert late, "expected late recharges in a damping run"
    assert all(a.cause in ("reuse", "unattributed") for a in late)
    assert any(a.cause == "reuse" for a in late)
