"""Integration tests asserting the paper's qualitative claims end-to-end.

These run the full stack on the paper's 100-node mesh (each episode takes
well under a second) and check the phenomena the paper reports: false
suppression after one pulse, suppression onset at the ISP on the third
pulse, secondary charging and its elimination by RCN, the muffling effect
past the critical pulse count, and the message-count trends.
"""

from __future__ import annotations

import pytest

from repro.core.intended import IntendedBehaviorModel
from repro.core.params import CISCO_DEFAULTS
from repro.core.states import DampingPhase
from repro.experiments.base import mesh100_config
from repro.experiments.fig10 import classify_run
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import Scenario, run_episode

SEED = 42


@pytest.fixture(scope="module")
def one_pulse_damping():
    return run_episode(mesh100_config(seed=SEED), pulses=1)


@pytest.fixture(scope="module")
def five_pulse_damping():
    return run_episode(mesh100_config(seed=SEED), pulses=5)


@pytest.fixture(scope="module")
def no_damping_results():
    config = mesh100_config(damping=None, seed=SEED)
    return {n: run_episode(config, pulses=n) for n in (1, 3, 5)}


def test_single_pulse_triggers_false_suppression(one_pulse_damping):
    """Paper 5.3: one pulse triggers suppression at hundreds of links even
    though the ISP itself never suppresses."""
    assert one_pulse_damping.summary.total_suppressions > 50
    assert one_pulse_damping.summary.peak_damped_links > 50


def test_single_pulse_convergence_far_exceeds_intended(one_pulse_damping):
    """Paper Fig 8: for n=1 the measured convergence is tens of minutes,
    the intended behaviour is ~t_up (seconds)."""
    assert one_pulse_damping.convergence_time > 1000.0
    assert one_pulse_damping.warmup_convergence < 300.0


def test_single_pulse_amplified_to_hundreds_of_updates(one_pulse_damping):
    """Paper 5.3: 'this single pulse is amplified to several hundred
    updates in the network'."""
    assert one_pulse_damping.message_count > 300


def test_secondary_charging_present_without_rcn(one_pulse_damping):
    """Reuse timers get postponed by reuse-triggered update waves."""
    assert one_pulse_damping.summary.secondary_charges > 0


def test_isp_suppression_starts_at_third_pulse():
    """Paper 5.3: 'the third pulse will trigger suppression on the
    [originAS, ispAS] link' (Cisco defaults, 60 s interval)."""
    for pulses, expect_suppressed in ((2, False), (3, True)):
        scenario = Scenario(mesh100_config(seed=SEED))
        scenario.warm_up()
        scenario.run(PulseSchedule.regular(pulses, 60.0))
        isp_router = scenario.routers[scenario.isp]
        suppressed_origin_link = any(
            record.peer == "originAS"
            for record in isp_router.damping.suppressions
        )
        assert suppressed_origin_link is expect_suppressed, (
            f"pulses={pulses}: expected ISP suppression {expect_suppressed}"
        )


def test_muffling_brings_convergence_to_intended(five_pulse_damping):
    """Paper Fig 8: past the critical point (Nh=5 in this setup) the
    measured convergence matches the Section 3 calculation."""
    model = IntendedBehaviorModel(
        CISCO_DEFAULTS, flap_interval=60.0, tup=five_pulse_damping.warmup_convergence
    )
    intended = model.predict(5).convergence_time
    assert five_pulse_damping.convergence_time == pytest.approx(intended, rel=0.05)


def test_beyond_critical_point_reuse_is_silent(five_pulse_damping):
    """Paper 5.3 (n=5): muffling makes remote reuse timers expire silently;
    the only noisy expiry is the ISP's own RTh."""
    summary = five_pulse_damping.summary
    assert summary.silent_reuses > 100
    assert summary.noisy_reuses <= 3


def test_small_pulse_counts_deviate_from_intended():
    """Paper Fig 8: below the critical point the measured convergence is a
    large multiple of the intended value."""
    result = run_episode(mesh100_config(seed=SEED), pulses=1)
    model = IntendedBehaviorModel(
        CISCO_DEFAULTS, flap_interval=60.0, tup=result.warmup_convergence
    )
    intended = model.predict(1).convergence_time
    assert result.convergence_time > 5 * intended


def test_no_damping_message_count_grows_linearly(no_damping_results):
    """Paper Fig 9: without damping the message count grows ~linearly."""
    m1 = no_damping_results[1].message_count
    m3 = no_damping_results[3].message_count
    m5 = no_damping_results[5].message_count
    assert m1 < m3 < m5
    assert m3 == pytest.approx(3 * m1, rel=0.35)
    assert m5 == pytest.approx(5 * m1, rel=0.35)


def test_no_damping_convergence_short(no_damping_results):
    for result in no_damping_results.values():
        assert result.convergence_time < 300.0
        assert result.summary.total_suppressions == 0


def test_damping_caps_message_count():
    """Paper Fig 9: with damping the message count flattens once the ISP
    suppresses the flapping route."""
    m5 = run_episode(mesh100_config(seed=SEED), pulses=5).message_count
    m8 = run_episode(mesh100_config(seed=SEED), pulses=8).message_count
    assert m8 < m5 * 1.15


def test_rcn_matches_intended_for_small_n():
    """Paper Fig 13: with RCN the convergence matches the calculation at
    every pulse count, including below the critical point."""
    # n=1: no suppression is intended — convergence is plain BGP
    # convergence (seconds-to-minutes), no damping delay.
    result1 = run_episode(mesh100_config(rcn=True, seed=SEED), pulses=1)
    assert result1.summary.total_suppressions == 0
    assert result1.convergence_time < 300.0
    # n=3: suppression is intended — convergence tracks r + t_up closely.
    result3 = run_episode(mesh100_config(rcn=True, seed=SEED), pulses=3)
    model = IntendedBehaviorModel(
        CISCO_DEFAULTS, flap_interval=60.0, tup=result3.warmup_convergence
    )
    intended = model.predict(3).convergence_time
    assert result3.convergence_time == pytest.approx(intended, rel=0.10)


def test_rcn_eliminates_secondary_charging():
    result = run_episode(mesh100_config(rcn=True, seed=SEED), pulses=1)
    assert result.summary.secondary_charges == 0
    assert result.summary.total_suppressions == 0


def test_rcn_produces_more_messages_at_large_n():
    """Paper Fig 14: RCN damping sends somewhat more messages than plain
    damping at large n (no early false suppression to cut exploration)."""
    plain = run_episode(mesh100_config(seed=SEED), pulses=8).message_count
    rcn = run_episode(mesh100_config(rcn=True, seed=SEED), pulses=8).message_count
    assert rcn > plain


def test_phase_classification_single_pulse(one_pulse_damping):
    """Paper Fig 10(a)/(d): charging, then suppression, then releasing."""
    phases = [interval.phase for interval in classify_run(one_pulse_damping)]
    assert phases[0] is DampingPhase.CHARGING
    assert DampingPhase.SUPPRESSION in phases
    assert DampingPhase.RELEASING in phases
    assert phases[-1] is DampingPhase.CONVERGED


def test_releasing_dominates_single_pulse_timeline(one_pulse_damping):
    """Paper 5.3: suppression + releasing dwarf the charging period."""
    from repro.core.states import phase_durations

    durations = phase_durations(classify_run(one_pulse_damping))
    post_charging = (
        durations[DampingPhase.SUPPRESSION] + durations[DampingPhase.RELEASING]
    )
    assert post_charging > 5 * durations[DampingPhase.CHARGING]
