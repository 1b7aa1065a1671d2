"""Internet-scale flap episodes: build, measure, and gate.

The paper's figures stop at 208 nodes; this runner drives the same
warm-up + pulse-train methodology on 1k–10k+-node graphs from the
:mod:`repro.topology.scale` pipeline and reports the numbers the scale
gates consume: wall-clock per stage, engine events per second, and the
process's peak resident set (``ru_maxrss``). CI runs the 1k tier on
every push (``benchmarks/compare_mem.py`` against the committed
``mem_baseline.json``); the 5k/10k tiers back the acceptance check that
a 10k-node episode finishes under the watchdog in < 2 GB.

Scale episodes damp with Cisco defaults, default to delivery coalescing
(``ScenarioConfig.coalesce_delivery``) and always arm the watchdog, so
a wedged flap storm fails fast with a diagnosis instead of spinning.
Results carry the run's metrics digest: the episode is exactly as
deterministic as the small-graph figures, which is what lets CI pin a
generated-fixture digest. See docs/SCALING.md.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.params import CISCO_DEFAULTS
from repro.metrics.digest import run_digest
from repro.topology.model import Topology
from repro.topology.scale import powerlaw_topology
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, ScenarioConfig


def peak_rss_bytes() -> int:
    """The process's lifetime peak resident set size in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes so gates and baselines are portable.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


@dataclass
class ScaleEpisodeResult:
    """Measurements from one large-graph flap episode."""

    topology_name: str
    nodes: int
    edges: int
    pulses: int
    seed: int
    coalesce_delivery: bool
    #: Wall-clock seconds per stage (host time, not simulated time).
    build_seconds: float
    warmup_seconds: float
    episode_seconds: float
    #: Engine events executed during the measured episode and the
    #: resulting throughput (the scale gate's headline number).
    events: int
    events_per_sec: float
    #: Lifetime peak RSS of the process after the episode, in bytes.
    peak_rss_bytes: int
    #: Paper-style outcome metrics, for sanity rather than gating.
    message_count: int
    convergence_time: float
    suppressions: int
    #: Canonical metrics digest of the episode (deterministic per
    #: topology + seed + schedule, coalescing included).
    digest: str

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.warmup_seconds + self.episode_seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for ``topo bench --json`` and the CI gate."""
        return {
            "topology": self.topology_name,
            "nodes": self.nodes,
            "edges": self.edges,
            "pulses": self.pulses,
            "seed": self.seed,
            "coalesce_delivery": self.coalesce_delivery,
            "build_seconds": round(self.build_seconds, 3),
            "warmup_seconds": round(self.warmup_seconds, 3),
            "episode_seconds": round(self.episode_seconds, 3),
            "total_seconds": round(self.total_seconds, 3),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "peak_rss_bytes": self.peak_rss_bytes,
            "message_count": self.message_count,
            "convergence_time": round(self.convergence_time, 3),
            "suppressions": self.suppressions,
            "digest": self.digest,
        }


def run_scale_episode(
    topology: Optional[Topology] = None,
    nodes: int = 1000,
    pulses: int = 2,
    interval: float = 120.0,
    seed: int = 0,
    topology_seed: int = 3,
    coalesce_delivery: bool = True,
) -> ScaleEpisodeResult:
    """Run one flap episode on a large graph and measure it.

    ``topology`` defaults to a freshly generated
    :func:`~repro.topology.scale.powerlaw_topology` with ``nodes`` ASes
    (pass an ingested or fixture topology to measure that instead).
    The episode itself is the paper's methodology unchanged: warm up to
    convergence, wipe damping state, drive ``pulses`` down/up pairs
    through the origin, run the queue dry.
    """
    start = time.perf_counter()
    if topology is None:
        topology = powerlaw_topology(nodes, seed=topology_seed)
    config = ScenarioConfig(
        topology=topology,
        damping=CISCO_DEFAULTS,
        seed=seed,
        coalesce_delivery=coalesce_delivery,
    )
    scenario = Scenario(config)
    scenario.engine.enable_watchdog()
    built = time.perf_counter()

    scenario.warm_up()
    warmed = time.perf_counter()

    events_before = scenario.engine.events_executed
    result = scenario.run(PulseSchedule.regular(pulses, interval))
    done = time.perf_counter()

    events = scenario.engine.events_executed - events_before
    episode_seconds = done - warmed
    return ScaleEpisodeResult(
        topology_name=topology.name,
        nodes=topology.node_count,
        edges=topology.edge_count,
        pulses=pulses,
        seed=seed,
        coalesce_delivery=coalesce_delivery,
        build_seconds=built - start,
        warmup_seconds=warmed - built,
        episode_seconds=episode_seconds,
        events=events,
        events_per_sec=events / episode_seconds if episode_seconds > 0 else 0.0,
        peak_rss_bytes=peak_rss_bytes(),
        message_count=result.message_count,
        convergence_time=result.convergence_time,
        suppressions=result.summary.total_suppressions,
        digest=run_digest(result.collector),
    )
