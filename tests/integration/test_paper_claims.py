"""The paper's claims, end to end: every row of the claims table
(:mod:`repro.experiments.claims`) on its experiment's reduced grid, the
one claim no experiment measures (the ISP's suppression onset), and the
table's completeness.

Each experiment runs once per session (the ``experiment_result``
fixture); sweeps that share a series, like F8, F9, F13 and F14, execute
it once.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro.experiments.base import Sweep, mesh100_config
from repro.experiments.claims import CLAIMS, CLAIMS_BY_ID
from repro.experiments.registry import EXPERIMENTS
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import run_scenario

EXPERIMENTS_MD = pathlib.Path(repro.__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("claim_id", [claim.claim_id for claim in CLAIMS])
def test_claim_holds(claim_id, claims_hold):
    claims_hold(claim_id)


def test_isp_suppression_starts_at_third_pulse():
    """Paper 5.3: 'the third pulse will trigger suppression on the
    [originAS, ispAS] link' (Cisco defaults, 60 s interval)."""
    for pulses, expect_suppressed in ((2, False), (3, True)):
        scenario, _ = run_scenario(mesh100_config(), PulseSchedule.regular(pulses, 60.0))
        isp_router = scenario.routers[scenario.isp]
        suppressed_origin_link = any(
            record.peer == "originAS" for record in isp_router.damping.suppressions
        )
        assert suppressed_origin_link is expect_suppressed, (
            f"pulses={pulses}: expected ISP suppression {expect_suppressed}"
        )


def test_claims_table_is_complete():
    """Ids are unique and prefixed by the experiment they read; every
    registered experiment has a row; a sweep row names pulse counts of
    its experiment's grid, any other row none; EXPERIMENTS.md cites
    exactly the table's ids."""
    assert len(CLAIMS_BY_ID) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.claim_id.startswith(f"{claim.experiment}-"), claim.claim_id
        entry = EXPERIMENTS[claim.experiment]
        if isinstance(entry, Sweep):
            assert claim.pulses and set(claim.pulses) <= set(entry.pulse_counts), claim.claim_id
        else:
            assert claim.pulses == (), claim.claim_id
    assert {claim.experiment for claim in CLAIMS} == set(EXPERIMENTS)
    cited = set(re.findall(r"\[([A-Z]+\d+-[a-z0-9-]+)\]", EXPERIMENTS_MD.read_text("utf-8")))
    assert cited == set(CLAIMS_BY_ID)


#: The tests this file held before the claims table, each now the rows
#: that carry its asserts; the names stay, as tests of those rows.
FORMER_TESTS = {
    "test_single_pulse_triggers_false_suppression": (
        "F10-n1-false-suppression", "F10-n1-damped-links",
    ),
    "test_single_pulse_convergence_far_exceeds_intended": (
        "F8-n1-tens-of-minutes", "F8-warmup-seconds",
    ),
    "test_single_pulse_amplified_to_hundreds_of_updates": ("F9-n1-amplified",),
    "test_secondary_charging_present_without_rcn": ("X4-plain-secondary",),
    "test_muffling_brings_convergence_to_intended": ("F8-past-nh",),
    "test_beyond_critical_point_reuse_is_silent": ("F10-n5-silent", "F10-n5-noisy"),
    "test_small_pulse_counts_deviate_from_intended": ("F8-n1-above-intended",),
    "test_no_damping_message_count_grows_linearly": (
        "F9-nodamp-increasing", "F9-nodamp-linear",
    ),
    "test_no_damping_convergence_short": ("F8-nodamp-fast", "F8-nodamp-no-suppression"),
    "test_damping_caps_message_count": ("F9-damped-plateau",),
    "test_rcn_matches_intended_for_small_n": (
        "F13-rcn-small-n-unsuppressed", "F13-rcn-small-n-fast", "F13-rcn-tracks-calc",
    ),
    "test_rcn_eliminates_secondary_charging": (
        "X4-rcn-no-secondary", "F13-rcn-small-n-unsuppressed",
    ),
    "test_rcn_produces_more_messages_at_large_n": ("F14-rcn-more-than-plain",),
    "test_phase_classification_single_pulse": ("F10-n1-phase-order",),
    "test_releasing_dominates_single_pulse_timeline": ("F10-n1-releasing-dominates",),
}


def _rows_test(claim_ids):
    def test(claims_hold):
        claims_hold(*claim_ids)

    return test


for _name, _claim_ids in FORMER_TESTS.items():
    globals()[_name] = _rows_test(_claim_ids)
