"""The ten PERF rules stay on record after the analyser that ran them.

PERF006 survives as a check in ``tests/unit/test_source_rules.py``; the
other nine retired on the benchmark pairs (docs/STATIC_ANALYSIS.md,
"Retired rules"). Each rule keeps a row there, with its test or with the
evidence that retired it, and a hazard/fix pair that the runtime
allocation probe prices (``tests/integration/test_perflint_oracle.py``).
"""

from __future__ import annotations

import pytest

import tests.unit.test_source_rules as source_rules
from tests.integration.test_perflint_oracle import DYNAMIC_PAIRS

PERF_RULE_IDS = tuple(f"PERF{n:03d}" for n in range(1, 11))


def test_catalogue_ids_are_sequential():
    rules = source_rules.documented_rules()
    documented = [rule for rule in rules if rule.startswith("PERF")]
    assert sorted(documented) == list(PERF_RULE_IDS)
    retired = [rule for rule in documented if rules[rule][0] == "Retired rules"]
    assert retired == sorted(retired)


@pytest.mark.parametrize("rule_id", PERF_RULE_IDS)
def test_every_perf_rule_is_registered(rule_id):
    section, cells = source_rules.documented_rules()[rule_id]
    if section == "The source rules":
        test_name = cells[0].strip("`")
        assert callable(getattr(source_rules, test_name, None)), test_name
    else:
        assert section == "Retired rules" and all(cells)
    assert rule_id in DYNAMIC_PAIRS
