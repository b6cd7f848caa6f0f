"""All evaluation modes must produce identical results.

Rule groups on/off (paper ablation), member-scan vs delta-probe join
evaluation and atomic-rule deduplication on/off trade performance;
through the differential harness each combination must reproduce the
reference digest of seed 1.  Where a covering-array row fixes all
three values, that row is the run.  The reference itself must
agree with a hand evaluation of every objectglobe rule.
"""

import pytest

from repro.workload.differential import (
    BOTH,
    JOINER,
    LONE,
    OVER_BOTH,
    TARGETED_RULES,
    reference_digest,
)
from tests.workload.differential_helpers import checked, covering_row


@pytest.mark.parametrize("use_rule_groups", [True, False])
@pytest.mark.parametrize("join_evaluation", ["scan", "probe"])
@pytest.mark.parametrize("deduplicate", [True, False])
def test_modes_agree(use_rule_groups, join_evaluation, deduplicate):
    row = covering_row(
        use_rule_groups=use_rule_groups,
        join_evaluation=join_evaluation,
        deduplicate=deduplicate,
    )
    assert checked(1, **row) == []


def test_baseline_is_correct():
    """The reference passed its own checks (``reference_digest`` raises
    otherwise), among them that every objectglobe rule's final match
    set, and JOINER's as it was unsubscribed, equal a hand evaluation
    over the stored documents (``closed_form``).  Here: the
    hand-placed rules are among them, and not vacuously."""
    reference = reference_digest(1)
    match = {rule: uris for matches in reference["provider"]["matches"].values()
             for rule, uris in matches.items()}
    assert {*TARGETED_RULES, BOTH, OVER_BOTH, LONE} <= set(match)
    head = "search CycleProvider c register c"
    # The class-only rule, the three-conjunct join and a needle match;
    # the needle longer than every host does not.
    assert match[head] and match[TARGETED_RULES[1]]
    assert match[f"{head} where c.serverHost contains 'ana'"]
    assert not match[f"{head} where c.serverHost contains 'c.uni-muenchen.de.org'"]
    # ``cpu > 950`` became a join input through JOINER: while live, the
    # join held the host published before it was subscribed (initialized
    # from matches materialized while it fed no join) and the one after.
    (live,) = [uris for key, uris in reference["unsubscribed"].items()
               if key.endswith(JOINER)]
    assert len(live) == 2
    assert JOINER not in match
