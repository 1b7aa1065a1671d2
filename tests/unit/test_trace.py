"""Unit tests for the causal trace subsystem: record serialization,
sinks, and tracer semantics."""

from __future__ import annotations

import json

import pytest

from repro.trace import (
    KNOWN_KINDS,
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceRecord,
    Tracer,
    canonical_line,
    parse_jsonl,
    record_from_json,
    render_jsonl,
    trace_digest,
)

# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------


def test_schema_version_and_kinds():
    # v2 added the fault-injection kinds: fault, drop, gr_expire.
    assert TRACE_SCHEMA_VERSION == 2
    assert "charge" in KNOWN_KINDS
    assert "reuse_expired" in KNOWN_KINDS
    assert "fault" in KNOWN_KINDS
    assert "drop" in KNOWN_KINDS
    assert "gr_expire" in KNOWN_KINDS
    assert len(KNOWN_KINDS) == 13


def test_record_canonical_line_is_sorted_and_compact():
    record = TraceRecord(
        id=3, time=1.5, kind="charge", node="n1", cause_id=1, data={"b": 2, "a": 1}
    )
    line = canonical_line(record)
    # No whitespace, keys sorted, so the line is byte-stable whatever
    # order fields were supplied in.
    assert " " not in line
    assert line.index('"a"') < line.index('"b"')
    assert json.loads(line) == {
        "id": 3,
        "t": 1.5,
        "kind": "charge",
        "node": "n1",
        "cause": 1,
        "data": {"a": 1, "b": 2},
    }


def test_record_omits_empty_optionals():
    record = TraceRecord(id=1, time=0.0, kind="flap", node=None, cause_id=None, data={})
    payload = record.to_json_dict()
    assert set(payload) == {"id", "t", "kind"}


def test_record_time_rounded_to_microseconds():
    record = TraceRecord(id=1, time=1.23456789, kind="flap")
    assert record.to_json_dict()["t"] == 1.234568


def test_round_trip_through_jsonl():
    records = [
        TraceRecord(id=1, time=0.0, kind="flap", data={"pulse": 0}),
        TraceRecord(id=2, time=0.1, kind="send", node="a", cause_id=1, data={"dst": "b"}),
        TraceRecord(id=3, time=0.2, kind="recv", node="b", cause_id=2),
    ]
    document = render_jsonl(records)
    parsed = parse_jsonl(document)
    assert parsed == records
    # And re-rendering is byte-identical (canonical form is a fixpoint).
    assert render_jsonl(parsed) == document


def test_record_from_json_rejects_garbage():
    with pytest.raises(Exception):
        record_from_json({"t": 0.0, "kind": "flap"})  # no id


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------


def test_null_sink_collects_nothing():
    sink = NullSink()
    assert sink.collecting is False
    assert sink.write([]) is None


def test_memory_sink_digest_matches_document_hash():
    records = [TraceRecord(id=1, time=0.0, kind="flap")]
    sink = MemorySink()
    digest = sink.write(records)
    assert digest == trace_digest(render_jsonl(records))
    assert sink.records == records


def test_jsonl_sink_writes_canonical_document(tmp_path):
    records = [
        TraceRecord(id=1, time=0.0, kind="flap"),
        TraceRecord(id=2, time=0.5, kind="send", node="a", cause_id=1),
    ]
    path = tmp_path / "trace.jsonl"
    digest = JsonlSink(str(path)).write(records)
    document = path.read_text(encoding="utf-8")
    assert document == render_jsonl(records)
    assert digest == trace_digest(document)
    assert len(document.splitlines()) == 2


def test_empty_trace_digest_is_empty_document_hash():
    # Zero-pulse episodes legitimately produce empty traces; their digest
    # is the SHA-256 of the empty string, not an error.
    assert trace_digest("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


def test_tracer_assigns_monotonic_ids_and_threads_context():
    tracer = Tracer(MemorySink())
    first = tracer.emit("flap", 0.0)
    tracer.set_context(first)
    # Instrumented components pass the ambient context as the cause.
    second = tracer.emit(
        "charge", 0.1, node="n1", cause=tracer.context, peer="p", charged=True
    )
    assert (first, second) == (1, 2)
    assert tracer.records[1].cause_id == first
    assert tracer.records[1].data["peer"] == "p"


def test_tracer_kind_and_time_never_collide_with_data_fields():
    # `kind` is a legitimate data field (charge records carry the update
    # kind); emit's own parameters are positional-only so it can pass.
    tracer = Tracer(MemorySink())
    rid = tracer.emit("charge", 0.0, kind="withdrawal", time=3.0)
    assert tracer.records[rid - 1].kind == "charge"
    assert tracer.records[rid - 1].data == {"kind": "withdrawal", "time": 3.0}


def test_tracer_amend_updates_record_data():
    tracer = Tracer(MemorySink())
    rid = tracer.emit("reuse_expired", 5.0, noisy=False)
    tracer.amend(rid, noisy=True)
    assert tracer.records[rid - 1].data["noisy"] is True


def test_tracer_close_is_idempotent_and_returns_digest():
    tracer = Tracer(MemorySink())
    tracer.emit("flap", 0.0)
    digest = tracer.close()
    assert digest is not None
    assert tracer.close() == digest


def test_disabled_tracer_attach_is_noop():
    from repro.sim.engine import Engine

    tracer = Tracer(NullSink())
    assert tracer.enabled is False
    engine = Engine()
    tracer.attach(engine, network=None, routers=[])
    # A disabled tracer subscribes nothing.
    assert engine.observers == ()


def test_event_hook_instruments_engine():
    from repro.sim.engine import Engine

    engine = Engine()
    seen = []
    engine.add_observer(seen.append)
    assert engine.observers == (seen.append,)
    event = engine.schedule(1.0, lambda: None)
    engine.run()
    assert seen == [event]
