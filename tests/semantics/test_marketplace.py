"""The marketplace scenario and registry hygiene under unsubscribes."""

from __future__ import annotations

import pytest

from repro.analysis import audit_database
from repro.mdv.provider import MetadataProvider
from repro.semantics import SEMANTICS_MODES
from repro.storage.schema import TRIGGER_TABLES
from repro.workload.marketplace import (
    MINIMUM_DEGREE,
    SUBSCRIPTIONS,
    expected_matches,
    listings,
    marketplace_schema,
    run_marketplace,
    seed_vocabulary,
)


@pytest.mark.parametrize("semantics", SEMANTICS_MODES)
def test_marketplace_matches_prediction(semantics):
    assert run_marketplace(semantics) == expected_matches(semantics)


def test_taxonomy_recovers_matches_off_cannot():
    """The ISSUE's acceptance bar: a subscription that matches under
    ``taxonomy`` but *cannot* match under ``off``."""
    off = expected_matches("off")
    taxonomy = expected_matches("taxonomy")
    gained = {
        subscriber
        for subscriber, uris in taxonomy.items()
        if set(uris) - set(off[subscriber])
    }
    assert gained  # predicted…
    live_off = run_marketplace("off")
    live_tax = run_marketplace("taxonomy")
    for subscriber in gained:  # …and observed on the live engine
        assert set(live_tax[subscriber]) > set(live_off[subscriber])


def test_every_degree_appears_in_the_scenario():
    degrees = sorted(set(MINIMUM_DEGREE.values()))
    assert degrees == [0, 1, 2, 3]


def test_unsubscribe_drops_all_expanded_atoms():
    """No semantic row may survive its rule — MDV03x audit stays clean."""
    mdp = MetadataProvider(
        marketplace_schema(), name="mkt", semantics="mappings"
    )
    try:
        seed_vocabulary(mdp)
        for subscriber, rule_text in SUBSCRIPTIONS:
            mdp.subscribe(subscriber, rule_text)
        for doc in listings():
            mdp.register_document(doc)
        semantic_rows = sum(
            mdp.db.count(table, "semantic = 1") for table in TRIGGER_TABLES
        )
        assert semantic_rows > 0

        for subscriber, rule_text in SUBSCRIPTIONS:
            mdp.unsubscribe(subscriber, rule_text)

        for table in TRIGGER_TABLES:
            assert mdp.db.count(table) == 0, f"orphaned rows in {table}"
        report = audit_database(mdp.db)
        assert not report.errors()
        assert not report.warnings()
    finally:
        mdp.close()


def test_off_leaves_no_semantic_rows():
    """``semantics="off"`` must be byte-identical to today: the
    vocabulary may be registered, but no triggering row carries it."""
    mdp = MetadataProvider(marketplace_schema(), name="mkt-off")
    try:
        seed_vocabulary(mdp)
        for subscriber, rule_text in SUBSCRIPTIONS:
            mdp.subscribe(subscriber, rule_text)
        for table in TRIGGER_TABLES:
            assert mdp.db.count(table, "semantic = 1") == 0
    finally:
        mdp.close()
