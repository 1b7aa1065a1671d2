"""Workload definitions and seed-driven input generators of the repo benchmark.

The benchmark owns its inputs: topologies are generated here from the
seed and handed to the program as ``topology_from_dict`` documents, pulse
trains as ``PulseSchedule.regular``, so a later change to the generators
under ``repro.topology`` cannot move what is measured. Nothing in this
module imports ``repro`` at import time; the operation bodies import what
they call, inside the child process that measures them.

Why these four workloads (each one is a closed loop in one process and
one thread: the next operation starts when the previous one returned):

``mesh100_damped``
    The paper's main set-up in the regime it is about: a 10x10 torus,
    Cisco defaults, damping at every node, per-message delivery, the
    pulse count cycling 1, 3, 5 (false suppression, secondary charging
    and reuse-timer postponement at n = 1 and 3, muffling at n = 5).
    ``core.damping``, ``core.penalty`` and ``sim.timers`` do their most
    work here; degree 4 keeps ``bgp.decision`` small.

``mesh100_nodamp``
    The same torus with ``damping=None`` and n = 10. It bypasses
    ``core.damping`` entirely (no charges, no reuse timers) while pushing
    ~36k events and ~20k updates through ``sim.engine`` -> ``net.link``
    -> ``bgp.router`` -> ``bgp.mrai`` -> ``metrics.collector``. A change
    to the damping layer must not move it; an engine, link or MRAI change
    shows most here.

``powerlaw1k_coalesced``
    ``run_scale_episode`` (watchdog on, ``coalesce_delivery=True``) on a
    1000-node, ~2k-edge preferential-attachment graph. The same layers
    used differently: batched ``_DeliveryBatch`` delivery instead of one
    engine event per message, hub routers with hundreds of peers
    (candidate scan, ``select_best`` and export fan-out, path interning),
    ~70k events and ~100 MB, the only workload where ``peak_rss_mb``
    resolves anything. A gain for the per-message path that costs the
    batched one (or the reverse) shows as a split between this workload
    and the mesh ones.

``fig8_sweep``
    ``sweep_cache().clear()`` then ``run_fig8_9_sweeps(seed=S, jobs=1)``:
    33 points, snapshots on, exactly what ``rfd-repro run F8`` executes.
    The paper's headline artefact and the only workload that goes through
    ``experiments.parallel.execute_sweep``, ``WarmStateCache`` and
    snapshot capture/restore. It uses the repo's own ``mesh100_config``
    and ``internet100_config`` on purpose: here the driver is the product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

TORUS_SIDE = 10
POWERLAW_NODES = 1000
FLAP_INTERVAL = 60.0

#: Seed whose per-operation digests are pinned under ``bench/expected/``.
REFERENCE_SEED = 42


# ----------------------------------------------------------------------
# input generators (plain data; no repro import)
# ----------------------------------------------------------------------


def torus_document(side: int = TORUS_SIDE) -> Dict[str, Any]:
    """A ``side x side`` grid with wraparound as a topology document."""

    def name(row: int, col: int) -> str:
        return f"m{row:02d}x{col:02d}"

    nodes = [name(r, c) for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            edges.append([name(r, c), name(r, (c + 1) % side)])
            edges.append([name(r, c), name((r + 1) % side, c)])
    return {
        "format_version": 1,
        "name": f"mesh-{side}x{side}",
        "nodes": nodes,
        "edges": edges,
        "metadata": {"rows": side, "cols": side},
    }


def powerlaw_document(seed: int, nodes: int = POWERLAW_NODES) -> Dict[str, Any]:
    """A preferential-attachment graph drawn from ``random.Random(seed)``.

    A 4-clique core, then every new node attaches to two distinct
    existing nodes picked in proportion to their degree (an urn holding
    each node once per incident edge). Connected by construction; two
    edges per added node gives ``2 * nodes - 2`` edges.
    """
    rng = random.Random(seed)
    core, attach = 4, 2
    edges = [(a, b) for a in range(core) for b in range(a)]
    urn = [end for edge in edges for end in edge]
    for new in range(core, nodes):
        targets: set = set()
        while len(targets) < attach:
            targets.add(urn[rng.randrange(len(urn))])
        for target in sorted(targets):
            edges.append((new, target))
            urn.extend((new, target))
    names = [f"as{index:04d}" for index in range(nodes)]
    return {
        "format_version": 1,
        "name": f"bench-powerlaw-{nodes}",
        "nodes": names,
        "edges": [[names[a], names[b]] for a, b in edges],
        "metadata": {"seed": seed, "core": core, "attach": attach},
    }


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


@dataclass
class OpResult:
    """What one operation produced, reduced to what the harness checks.

    ``key`` names the operation kind within the workload (the samples of
    one kind must repeat exactly); ``digest`` covers every simulated
    observable; ``updates`` is the exact count of BGP updates delivered.
    ``problems`` lists broken sanity checks (empty when the run is sane).
    """

    key: str
    digest: str
    updates: int
    convergence_time: float
    suppressions: int
    fidelity_rel_err: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    #: Workload-specific pinned facts (fig8: ``critical_pulse_count``
    #: and the run digest of each of the 33 points).
    extra: Dict[str, Any] = field(default_factory=dict)


def _reduce_mesh(scenario: Any, result: Any, pulses: int) -> OpResult:
    from repro.metrics.digest import run_digest

    problems = []
    prefix = scenario.config.prefix
    if not all(router.has_route(prefix) for router in scenario.routers.values()):
        problems.append("a router has no route after the episode")
    damped = scenario.config.damping is not None
    suppressions = result.summary.total_suppressions
    if damped and suppressions <= 0:
        problems.append("damping on but nothing was suppressed")
    if not damped and suppressions != 0:
        problems.append("damping off but something was suppressed")
    fidelity = None
    if damped and pulses >= 5:
        intended = scenario.intended_model(FLAP_INTERVAL).predict(pulses)
        fidelity = (
            abs(result.convergence_time - intended.convergence_time)
            / intended.convergence_time
        )
    return OpResult(
        key=f"n{pulses}",
        digest=run_digest(result.collector),
        updates=result.message_count,
        convergence_time=result.convergence_time,
        suppressions=suppressions,
        fidelity_rel_err=fidelity,
        problems=problems,
    )


class Workload:
    """One benchmark workload: set-up once per process, then operations.

    An operation is split in two so the harness times only what a user
    waits for: ``run(i)`` does the work and returns whatever the
    reduction needs; ``reduce(raw)`` derives the :class:`OpResult`
    (digesting, sanity checks) outside the timed region.
    """

    name = ""
    #: Operations of the traced pass (ISSUE: 5 / 2 / 1 / 1).
    traced_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Generate inputs and build what every operation shares."""

    def warm_up(self) -> None:
        """The discarded operation that precedes the samples."""
        self.reduce(self.run(0))

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def reduce(self, raw: Any) -> OpResult:
        raise NotImplementedError


class _MeshWorkload(Workload):
    damping_on = True
    pulse_cycle = (1,)

    def prepare(self) -> None:
        from repro.topology.io import topology_from_dict

        self.topology = topology_from_dict(torus_document())
        self.damping = None
        if self.damping_on:
            from repro.core.params import CISCO_DEFAULTS

            self.damping = CISCO_DEFAULTS

    def run(self, index: int) -> Any:
        from repro.workload.pulses import PulseSchedule
        from repro.workload.scenarios import Scenario, ScenarioConfig

        pulses = self.pulse_cycle[index % len(self.pulse_cycle)]
        scenario = Scenario(
            ScenarioConfig(topology=self.topology, damping=self.damping, seed=self.seed)
        )
        scenario.warm_up()
        result = scenario.run(PulseSchedule.regular(pulses, FLAP_INTERVAL))
        return scenario, result, pulses

    def reduce(self, raw: Any) -> OpResult:
        return _reduce_mesh(*raw)


class Mesh100Damped(_MeshWorkload):
    name = "mesh100_damped"
    traced_ops = 5
    pulse_cycle = (1, 3, 5)


class Mesh100NoDamp(_MeshWorkload):
    name = "mesh100_nodamp"
    traced_ops = 2
    damping_on = False
    pulse_cycle = (10,)


class Powerlaw1kCoalesced(Workload):
    name = "powerlaw1k_coalesced"

    def prepare(self) -> None:
        from repro.topology.io import topology_from_dict

        self.topology = topology_from_dict(powerlaw_document(self.seed))

    def run(self, index: int) -> Any:
        from repro.experiments.scale import run_scale_episode

        return run_scale_episode(
            topology=self.topology, pulses=2, interval=120.0, seed=self.seed
        )

    def reduce(self, raw: Any) -> OpResult:
        problems = []
        if not raw.coalesce_delivery:
            problems.append("delivery was not coalesced")
        if raw.suppressions <= 0:
            problems.append("damping on but nothing was suppressed")
        return OpResult(
            key="episode",
            digest=raw.digest,
            updates=raw.message_count,
            convergence_time=raw.convergence_time,
            suppressions=raw.suppressions,
            problems=problems,
        )


class Fig8Sweep(Workload):
    name = "fig8_sweep"

    def warm_up(self) -> None:
        # A full discarded sweep costs ~11 s and set-up is repeated in
        # every child; two points per series still walk the whole path
        # (snapshot capture, cache, restore, execute_sweep, digest).
        from repro.experiments.base import sweep_cache
        from repro.experiments.fig8_9 import run_fig8_9_sweeps

        sweep_cache().clear()
        run_fig8_9_sweeps(pulse_counts=[0, 1], seed=self.seed, jobs=1)

    def run(self, index: int) -> Any:
        from repro.experiments.base import sweep_cache
        from repro.experiments.fig8_9 import run_fig8_9_sweeps

        sweep_cache().clear()
        return run_fig8_9_sweeps(seed=self.seed, jobs=1)

    def reduce(self, raw: Any) -> OpResult:
        import hashlib

        from repro.experiments.fig8_9 import calculation_series, critical_pulse_count

        problems = []
        hasher = hashlib.sha256()
        point_digests = {}
        updates = 0
        suppressions = 0
        for series_name, series in raw.items():
            if len(series.points) != 11:
                problems.append(f"{series_name} has {len(series.points)} points")
            for point in series.points:
                hasher.update(f"{series_name} {point.pulses} {point.digest}\n".encode())
                point_digests[f"{series_name} n={point.pulses}"] = point.digest
                updates += point.message_count
                suppressions += point.suppressions
                damped = series_name != "no_damping_mesh"
                if damped and point.pulses >= 1 and point.suppressions <= 0:
                    problems.append(f"{series_name} n={point.pulses}: no suppression")
        mesh = raw["full_damping_mesh"]
        counts = [p.pulses for p in mesh.points if p.pulses >= 5]
        calc = dict(calculation_series(counts, raw["no_damping_mesh"].mean_warmup))
        fidelity = max(
            abs(mesh.point(n).convergence_time - calc[n]) / calc[n] for n in counts
        )
        return OpResult(
            key="sweep",
            digest=hasher.hexdigest(),
            updates=updates,
            convergence_time=mesh.point(10).convergence_time,
            suppressions=suppressions,
            fidelity_rel_err=fidelity,
            problems=problems,
            extra={
                "critical_pulse_count": critical_pulse_count(raw),
                "point_digests": point_digests,
            },
        )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls
    for cls in (Mesh100Damped, Mesh100NoDamp, Powerlaw1kCoalesced, Fig8Sweep)
}
