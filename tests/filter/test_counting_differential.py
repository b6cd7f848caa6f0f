"""The counting matcher against the sql backend, through the
differential harness (:mod:`repro.workload.differential`): with
``triggering="counting"`` every seed's scenario must reproduce the sql
reference digest — notification stream, match sets (final, and each
unsubscribed rule's as it was dropped) and LMR caches — and its
triggering hits and join iterations pass by pass, across the
contains-heavy needle pool and the counting merge's role changes."""

import pytest

from tests.workload.differential_helpers import SEEDS, checked


@pytest.mark.parametrize("seed", SEEDS)
def test_counting_matches_sql_oracle(seed):
    assert checked(seed, triggering="counting") == []
