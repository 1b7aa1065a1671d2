"""Causal event tracing for simulation runs.

See ``docs/OBSERVABILITY.md`` for the record schema, ``cause_id``
semantics, and worked examples. Quick start::

    from repro.trace import JsonlSink, Tracer

    scenario = Scenario(config)
    scenario.warm_up()
    tracer = Tracer(JsonlSink("run.jsonl"))
    result = scenario.run(schedule, tracer=tracer)
    digest = tracer.close()
"""

from repro.trace.records import (
    KNOWN_KINDS,
    TRACE_SCHEMA_VERSION,
    TraceRecord,
    canonical_line,
    parse_jsonl,
    record_from_json,
    render_jsonl,
)
from repro.trace.sinks import JsonlSink, MemorySink, NullSink, TraceSink, trace_digest
from repro.trace.tracer import Tracer

__all__ = [
    "JsonlSink",
    "KNOWN_KINDS",
    "MemorySink",
    "NullSink",
    "TRACE_SCHEMA_VERSION",
    "TraceRecord",
    "TraceSink",
    "Tracer",
    "canonical_line",
    "parse_jsonl",
    "record_from_json",
    "render_jsonl",
    "trace_digest",
]
