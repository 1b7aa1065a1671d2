"""The runtime schedule-race detector on the paper's Figure 10 workload.

Two guarantees are under test. First, detection is *passive*: a fig10
episode with the detector enabled must produce bit-identical headline
results to the undetected run, because recording ties never reorders
events. Second, every tie the standard workload does produce must fall
in the known-benign allowlist. Those ties come from the per-direction
FIFO floor: a message due before its predecessor on the *same* link is
delivered at the predecessor's instant, in its own engine event, and
``(time, seq)`` runs the two in send order. Jittered links make a
same-instant delivery from a *different* link a measure-zero event. Any
new tag pair showing up here (e.g. a reuse timer colliding with a
delivery) is exactly the ordering-dependence the detector exists to
surface, and fails the suite until triaged.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.base import DEFAULT_SEED, mesh100_config
from repro.experiments.fig10 import FIG10_PULSE_COUNTS, fig10_experiment
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import FlapRunResult, Scenario

#: Tie tag pairs that are understood and safe on the standard workload.
#: ("deliver", "deliver"): two updates on one link that the FIFO floor
#: put on the same instant, run in send order.
BENIGN_TIE_TAGS = frozenset({("deliver", "deliver")})


def _run_episode(pulses: int, detect: bool) -> FlapRunResult:
    config = replace(
        mesh100_config(seed=DEFAULT_SEED), detect_schedule_ties=detect
    )
    scenario = Scenario(config)
    scenario.warm_up()
    return scenario.run(PulseSchedule.regular(pulses, 60.0))


def _headline(result: FlapRunResult) -> tuple:
    return (
        result.convergence_time,
        result.message_count,
        result.end_time,
        result.warmup_convergence,
        result.summary.total_suppressions,
        result.summary.peak_damped_links,
        result.summary.noisy_reuses,
        result.summary.silent_reuses,
        result.summary.secondary_charges,
        [u.time for u in result.collector.updates],
    )


@pytest.mark.parametrize("pulses", FIG10_PULSE_COUNTS)
def test_detector_is_passive_results_bit_identical(pulses):
    baseline = _run_episode(pulses, detect=False)
    detected = _run_episode(pulses, detect=True)
    assert _headline(detected) == _headline(baseline)
    assert baseline.collector.tie_count == 0  # detector off records nothing
    assert detected.collector.tie_count > 0  # the mesh workload does tie


@pytest.mark.parametrize("pulses", FIG10_PULSE_COUNTS)
def test_all_reported_ties_are_known_benign(pulses):
    result = _run_episode(pulses, detect=True)
    unexpected = {
        pair
        for pair in result.collector.ties_by_tag_pair()
        if pair not in BENIGN_TIE_TAGS
    }
    assert not unexpected, (
        f"new schedule-tie kinds {sorted(unexpected)} — ordering-dependent "
        "behaviour changed; triage before allowlisting (docs/STATIC_ANALYSIS.md)"
    )
    for tie in result.collector.schedule_ties:
        assert tie.first_seq < tie.second_seq
        assert tie.actor  # every tie names the router it touches


def test_fig10_experiment_accepts_detected_runs():
    """The full fig10 driver consumes detector-enabled episodes unchanged."""
    results = {n: _run_episode(n, detect=True) for n in (1,)}
    experiment = fig10_experiment(pulse_counts=(1,), results=results)
    rendered = experiment.render()
    assert "Update Series" in rendered
    assert experiment.rows[0][0] == 1


def test_warmup_ties_are_excluded_from_the_measured_episode():
    result = _run_episode(1, detect=True)
    start_of_episode = min(t for t in result.flap_times)
    for tie in result.collector.schedule_ties:
        assert tie.time >= start_of_episode - 1e-9
