"""Unit tests for exact causal attribution over trace DAGs."""

from __future__ import annotations

import pytest

from repro.analysis.causality import (
    CHARGE_CLASSES,
    AfterShock,
    analyze_trace,
    causal_chain,
)
from repro.trace import MemorySink, TraceRecord, Tracer


def _rec(rid, kind, /, cause=None, node=None, **data):
    return TraceRecord(
        id=rid, time=float(rid), kind=kind, node=node, cause_id=cause, data=data
    )


def test_charge_classes_vocabulary():
    assert CHARGE_CLASSES == (
        "origin-flap",
        "path-exploration",
        "secondary-charging",
        "fault-induced",
    )


def test_empty_trace_yields_empty_report():
    report = analyze_trace([])
    assert report.records_total == 0
    assert report.charges_total == 0
    assert report.secondary_fraction == 0.0
    assert report.secondary_charge_fraction == 0.0
    assert report.after_shocks == []


def test_flap_rooted_charges_split_by_update_kind():
    records = [
        _rec(1, "flap"),
        _rec(2, "recv", cause=1),
        _rec(3, "charge", cause=2, kind="withdrawal", charged=True),
        _rec(4, "charge", cause=2, kind="attribute_change", charged=True),
    ]
    report = analyze_trace(records)
    assert report.charges_by_class["origin-flap"] == 1
    assert report.charges_by_class["path-exploration"] == 1
    assert report.charges_by_class["secondary-charging"] == 0


def test_reuse_rooted_charge_is_secondary_whatever_its_kind():
    records = [
        _rec(1, "reuse_expired", noisy=True),
        _rec(2, "send", cause=1),
        _rec(3, "recv", cause=2),
        _rec(4, "charge", cause=3, kind="attribute_change", charged=True),
    ]
    report = analyze_trace(records)
    assert report.charges_by_class["secondary-charging"] == 1
    assert report.secondary_charge_fraction == 1.0


def test_fault_rooted_charge_is_fault_induced_whatever_its_kind():
    records = [
        _rec(1, "fault", action="crash", detail="r1"),
        _rec(2, "send", cause=1),
        _rec(3, "recv", cause=2),
        _rec(4, "charge", cause=3, kind="withdrawal", charged=True),
        _rec(5, "charge", cause=3, kind="attribute_change", charged=True),
    ]
    report = analyze_trace(records)
    assert report.charges_by_class["fault-induced"] == 2
    assert report.charges_by_class["origin-flap"] == 0
    assert report.charges_by_class["path-exploration"] == 0


def test_fault_rooted_postponement_counts_as_fault():
    records = [
        _rec(1, "fault", action="crash", detail="r1"),
        _rec(2, "charge", cause=1, charged=True),
        _rec(3, "reuse_postponed", cause=2),
    ]
    report = analyze_trace(records)
    assert report.postponements_by_class["fault"] == 1


def test_uncharged_charge_records_are_not_counted():
    records = [
        _rec(1, "flap"),
        _rec(2, "charge", cause=1, charged=False),
    ]
    assert analyze_trace(records).charges_total == 0


def test_postponement_classification_and_fraction():
    records = [
        _rec(1, "flap"),
        _rec(2, "charge", cause=1, charged=True),
        _rec(3, "reuse_postponed", cause=2),
        _rec(4, "reuse_expired", noisy=True),
        _rec(5, "charge", cause=4, charged=True),
        _rec(6, "reuse_postponed", cause=5),
        _rec(7, "reuse_postponed"),  # no cause: unattributed
    ]
    report = analyze_trace(records)
    assert report.postponements_by_class == {
        "reuse": 1,
        "flap": 1,
        "fault": 0,
        "unattributed": 1,
    }
    assert report.secondary_fraction == pytest.approx(1 / 3)


def test_muffled_reuse_expiries_are_childless():
    records = [
        _rec(1, "reuse_expired", noisy=True),
        _rec(2, "send", cause=1),
        _rec(3, "reuse_expired", noisy=False),
    ]
    report = analyze_trace(records)
    assert report.reuse_total == 2
    assert report.reuse_noisy == 1
    assert report.reuse_muffled == 1
    assert report.reuse_muffled_childless == 1


def test_after_shocks_count_postponements_rooted_in_each_reuse():
    """Fan-out follows the DAG, not the clock: the postponement at t=6
    descends from the earlier reuse at t=1 although the reuse at t=4 is
    closer in time, and a flap-rooted postponement counts for no reuse."""
    records = [
        _rec(1, "reuse_expired", node="r1", noisy=True),
        _rec(2, "send", cause=1),
        _rec(3, "recv", cause=2),
        _rec(4, "reuse_expired", node="r2", noisy=True),
        _rec(5, "charge", cause=4, charged=True),
        _rec(6, "charge", cause=3, charged=True),
        _rec(7, "reuse_postponed", cause=5),
        _rec(8, "reuse_postponed", cause=6),
        _rec(9, "reuse_postponed", cause=6),
        _rec(10, "flap"),
        _rec(11, "charge", cause=10, charged=True),
        _rec(12, "reuse_postponed", cause=11),
    ]
    report = analyze_trace(records)
    assert report.after_shocks == [
        AfterShock(time=1.0, router="r1", postponements=2),
        AfterShock(time=4.0, router="r2", postponements=1),
    ]
    assert sum(row.postponements for row in report.after_shocks) == (
        report.postponements_by_class["reuse"]
    )
    assert report.to_json_dict()["after_shocks"] == [[1.0, "r1", 2], [4.0, "r2", 1]]


def test_gap_in_ids_is_rejected_with_the_record_named():
    records = [_rec(1, "flap"), _rec(3, "send", cause=1)]
    with pytest.raises(ValueError, match="trace record 3 at position 2"):
        analyze_trace(records)


def test_forward_cause_is_rejected_with_the_record_named():
    records = [_rec(1, "flap"), _rec(2, "charge", cause=3), _rec(3, "send", cause=1)]
    with pytest.raises(ValueError, match="trace record 2 names cause 3"):
        analyze_trace(records)


def test_trace_missing_a_kind_of_record_is_rejected():
    """A parsed trace with its ``mrai_flush`` lines filtered out has id
    gaps; the analysis refuses it instead of misattributing charges."""
    from repro.experiments.base import small_mesh_config
    from repro.trace import parse_jsonl, render_jsonl
    from repro.workload.pulses import PulseSchedule
    from repro.workload.scenarios import run_scenario

    tracer = Tracer(MemorySink())
    run_scenario(small_mesh_config(seed=3), PulseSchedule.regular(1, 60.0), tracer=tracer)
    lines = render_jsonl(tracer.records).splitlines()
    kept = [line for line in lines if '"kind":"mrai_flush"' not in line]
    assert len(kept) < len(lines)
    with pytest.raises(ValueError, match="ids must run 1..n in order"):
        analyze_trace(parse_jsonl("\n".join(kept)))


def test_causal_chain_walks_root_first():
    records = [
        _rec(1, "flap"),
        _rec(2, "send", cause=1),
        _rec(3, "recv", cause=2),
        _rec(4, "charge", cause=3, charged=True),
    ]
    chain = causal_chain(records, 4)
    assert [record.id for record in chain] == [1, 2, 3, 4]
    assert chain[0].kind == "flap"


def test_analyze_trace_accepts_tracer_output():
    tracer = Tracer(MemorySink())
    flap = tracer.emit("flap", 0.0, pulse=0)
    charge = tracer.emit("charge", 0.1, node="n1", cause=flap, charged=True)
    tracer.emit("reuse_postponed", 0.1, node="n1", cause=charge)
    report = analyze_trace(tracer.records)
    assert report.records_total == 3
    assert report.postponements_by_class["flap"] == 1
