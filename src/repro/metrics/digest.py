"""Stable digests of a run's observable behaviour.

A simulation is only trustworthy as an experiment substrate if it is
bit-for-bit reproducible: same seed, same code → same behaviour. A
:func:`run_digest` hashes everything externally observable about an
episode (update deliveries with microsecond-rounded timestamps,
suppression state changes, reuse expiries), giving regression tests a
single value to pin and making "did this refactor change behaviour?"
a one-line check.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.metrics.collector import MetricsCollector


def _round_time(value: float) -> int:
    """Microsecond-rounded integer timestamp (stable across platforms)."""
    return int(round(value * 1_000_000))


def collector_fingerprint_lines(collector: MetricsCollector) -> Iterator[str]:
    """The canonical line-per-event rendering that gets hashed, one line
    at a time (a large run has tens of thousands of lines)."""
    for update in collector.updates:
        kind = "W" if update.is_withdrawal else "A"
        yield (
            f"U {_round_time(update.time)} {update.src}>{update.dst} "
            f"{update.prefix} {kind}"
        )
    for time, delta, router, peer in collector.suppression_changes:
        sign = "+" if delta > 0 else "-"
        yield f"S {_round_time(time)} {router}:{peer} {sign}"
    for event in collector.reuse_events():
        noise = "noisy" if event.noisy else "silent"
        yield f"R {_round_time(event.time)} {event.peer}:{event.prefix} {noise}"
    # Drop lines only appear when something was dropped, so fault-free
    # runs keep their historical digests byte-identical.
    for drop in collector.drops:
        kind = "W" if drop.is_withdrawal else "A"
        yield (
            f"D {_round_time(drop.time)} {drop.src}>{drop.dst} "
            f"{drop.prefix} {kind} {drop.reason}"
        )


def run_digest(collector: MetricsCollector) -> str:
    """Hex SHA-256 digest of the run observed by ``collector``."""
    hasher = hashlib.sha256()
    for line in collector_fingerprint_lines(collector):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
