"""The differential harness in tier-1: a pairwise covering array of
configuration × transport, the scenario's hand-placed cases and the
divergences the full lattice found."""

from __future__ import annotations

import itertools

import pytest

from repro.workload.differential import (
    BOTH,
    DIMENSIONS,
    JOINER,
    LONE,
    NAMED,
    OVER_BOTH,
    OVER_NAMED,
    TRANSPORTS,
    covering_array,
    scenario,
)
from tests.workload.differential_helpers import SEEDS, checked

ARRAY = covering_array()
#: The cases the generator's pools must hold for every seed.
CASES = (
    "empty needle",
    "needle longer than every host",
    "self-overlapping needle",
    "host with every 3-window of a needle it lacks",
    "range conjunct on memory",
    "range conjunct on cpu",
    "end rule that is also a join input",
    "end rule that becomes a join input and stops being one",
    "update of a document matched only off result_objects",
    "delete of a document matched only off result_objects",
    "rules over a named rule: before content, after it and unsubscribed",
)


@pytest.mark.parametrize("row", ARRAY, ids=lambda row: "-".join(
    str(value) for value in row.values()
))
def test_covering_array_row_matches_reference(row):
    assert checked(1, **row) == []


def test_covering_array_covers_every_value_pair():
    dims = {**DIMENSIONS, "transport": TRANSPORTS}
    wanted = {
        ((a, va), (b, vb))
        for a, b in itertools.combinations(dims, 2)
        for va in dims[a]
        for vb in dims[b]
    }
    covered = {
        ((a, row[a]), (b, row[b]))
        for row in ARRAY
        for a, b in itertools.combinations(dims, 2)
    }
    assert wanted <= covered
    # Far fewer rows than the lattice of 768.
    assert len(ARRAY) <= 20


def _cases(ops) -> set[str]:
    """The hand-targeted cases an operation list exercises."""
    rules = {op[2] for op in ops if op[0] == "subscribe"}
    hosts = {
        str(value)
        for op in ops if op[0] == "publish"
        for resource in op[1] if resource.rdf_class == "CycleProvider"
        for value in resource.get("serverHost")
    }
    published = [op[1].uri for op in ops if op[0] == "publish"]
    deleted = {op[1] for op in ops if op[0] == "delete"}
    unsubscribed = {op[2] for op in ops if op[0] == "unsubscribe"}
    first_publish = next(i for i, op in enumerate(ops) if op[0] == "publish")
    named_at = {op[1:]: i for i, op in enumerate(ops) if op[0] == "named"}
    subscribed_at = {op[2]: i for i, op in enumerate(ops) if op[0] == "subscribe"}

    def needle(text: str) -> bool:
        return any(f"contains '{text}'" in rule for rule in rules)

    found = set()
    if needle(""):
        found.add("empty needle")
    longest = "c.uni-muenchen.de.org"
    if needle(longest) and all(len(longest) > len(host) for host in hosts):
        found.add("needle longer than every host")
    if needle("ana") and "ananas.de" in hosts:
        found.add("self-overlapping needle")
    if needle("abcde") and "abc-xbc-cde.org" in hosts:
        found.add("host with every 3-window of a needle it lacks")
    if any("memory >" in rule and "contains" in rule for rule in rules):
        found.add("range conjunct on memory")
    if any("cpu <=" in rule for rule in rules):
        found.add("range conjunct on cpu")
    if {BOTH, OVER_BOTH} <= rules:
        found.add("end rule that is also a join input")
    if LONE in rules and JOINER in rules and JOINER in unsubscribed:
        found.add("end rule that becomes a join input and stops being one")
    if published.count("solo.rdf") == 2:
        found.add("update of a document matched only off result_objects")
    if "brief.rdf" in published and "brief.rdf" in deleted:
        found.add("delete of a document matched only off result_objects")
    before, after, dropped = (subscribed_at.get(rule) for rule in OVER_NAMED)
    if (
        named_at.get(NAMED, first_publish) < first_publish
        and None not in (before, after, dropped)
        and before < first_publish < after
        and OVER_NAMED[2] in unsubscribed
    ):
        found.add(
            "rules over a named rule: before content, after it and unsubscribed"
        )
    return found


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_holds_every_targeted_case(seed):
    assert _cases(scenario(seed)) == set(CASES)


def test_scenario_exercises_every_operation_kind():
    kinds = {op[0] for op in scenario(1)}
    assert kinds == {"vocab", "named", "subscribe", "unsubscribe", "publish",
                     "batch", "delete", "restart", "catch_up"}
    (batch,) = [op[1] for op in scenario(1) if op[0] == "batch"]
    uris = [document.uri for document in batch]
    assert len(set(uris)) < len(uris)


# Divergences the full lattice found, each pinned at a seed that shows it.
def test_registry_without_dedup_survives_a_restart():
    """A registry reopened on a store reused the salts of undeduplicated
    atoms, so the next insert broke ``atomic_rules.rule_text``."""
    assert checked(1, deduplicate=False) == []


def test_restarted_provider_without_durable_delivery_numbers_on():
    """An in-memory outbox restarted at seq 1 after a restart and the
    LMR dropped the new batches as duplicates."""
    assert checked(1, transport="bus") == []


def test_late_taxonomy_notifies_the_matches_it_adds():
    """A taxonomy edge widened match sets at the provider but sent no
    notifications, so the LMR cache missed the new matches."""
    assert checked(1, semantics="taxonomy") == []
