"""The semantic tier through the differential harness
(:mod:`repro.workload.differential`).

At every ``semantics`` degree the reference run (sql triggering, direct
delivery) audits itself: its single-atom rules agree with the naive
:class:`~repro.semantics.SemanticOracle`, and a browse of each rule
answers what its subscription matches.  The counting matcher must
reproduce the reference digest byte for byte, and each degree's match
sets contain the previous degree's.
"""

from __future__ import annotations

import pytest

from repro.semantics import SEMANTICS_MODES
from repro.workload.differential import SEMANTIC_RULES, reference_digest
from tests.workload.differential_helpers import SEEDS, checked


@pytest.mark.parametrize("semantics", SEMANTICS_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_cross_knob_identity(seed, semantics):
    assert checked(seed, semantics=semantics, triggering="counting") == []


@pytest.mark.parametrize("semantics", SEMANTICS_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_oracle(seed, semantics):
    # The reference run raises unless its oracle checks pass.
    assert reference_digest(seed, semantics)["streams"]


def test_degrees_are_cumulative():
    """Each degree's final match sets contain the previous degree's."""
    for seed in SEEDS:
        previous: dict[str, list[str]] | None = None
        for mode in SEMANTICS_MODES:
            final = {
                rule: uris
                for matches in reference_digest(seed, mode)["provider"][
                    "matches"
                ].values()
                for rule, uris in matches.items()
                if rule in SEMANTIC_RULES
            }
            assert final
            if previous is not None:
                for key, uris in previous.items():
                    assert set(uris) <= set(final[key]), (
                        f"degree {mode!r} lost matches of {key!r}"
                    )
            previous = final
