"""The MDV07x vocabulary audit."""

from __future__ import annotations

import pytest

from repro.analysis import audit_vocabulary
from repro.mdv.provider import MetadataProvider
from repro.workload.marketplace import (
    SUBSCRIPTIONS,
    listings,
    marketplace_schema,
    seed_vocabulary,
)


@pytest.fixture()
def marketplace_mdp():
    mdp = MetadataProvider(
        marketplace_schema(), name="lint", semantics="mappings"
    )
    seed_vocabulary(mdp)
    for subscriber, rule_text in SUBSCRIPTIONS:
        mdp.subscribe(subscriber, rule_text)
    for doc in listings():
        mdp.register_document(doc)
    yield mdp
    mdp.close()


def _codes(report):
    return sorted({d.code for d in report})


def test_healthy_vocabulary_is_clean(marketplace_mdp):
    report = audit_vocabulary(marketplace_mdp.db, marketplace_schema())
    assert list(report) == []


def test_mdv070_unknown_property_synonym(marketplace_mdp):
    marketplace_mdp.register_synonyms("property", ["price", "pricex"])
    report = audit_vocabulary(marketplace_mdp.db, marketplace_schema())
    assert "MDV070" in _codes(report)
    assert any("pricex" in d.message for d in report)


def test_mdv070_unknown_taxonomy_concept(marketplace_mdp):
    marketplace_mdp.register_taxonomy_edge("zeppelin", "vehicle")
    report = audit_vocabulary(marketplace_mdp.db, marketplace_schema())
    assert any(
        d.code == "MDV070" and "zeppelin" in d.message for d in report
    )


def test_mdv071_corrupted_closure(marketplace_mdp):
    db = marketplace_mdp.db
    # A pair no edge path entails…
    db.execute(
        "INSERT INTO semantic_taxonomy_closure (ancestor, descendant) "
        "VALUES ('vehicle', 'boat')"
    )
    # …and a missing entailed pair (pickup ->* vehicle is registered).
    db.execute(
        "DELETE FROM semantic_taxonomy_closure "
        "WHERE ancestor = 'vehicle' AND descendant = 'pickup'"
    )
    report = audit_vocabulary(db, marketplace_schema())
    errors = [d for d in report if d.code == "MDV071"]
    assert len(errors) == 2
    assert all(d.is_error for d in errors)


def test_mdv072_and_mdv073_on_hand_edited_mappings(marketplace_mdp):
    db = marketplace_mdp.db
    # Bypass the store's registration-time checks entirely.
    db.execute(
        "INSERT INTO semantic_mappings "
        "(source_property, target_property, kind, scale, offset) "
        "VALUES ('cost', 'price', 'affine', 0.0, 0.0)"
    )
    db.execute(
        "INSERT INTO semantic_mappings "
        "(source_property, target_property, kind, scale, offset) "
        "VALUES ('title', 'category', 'affine', 2.0, 0.0)"
    )
    report = audit_vocabulary(db, marketplace_schema())
    codes = _codes(report)
    assert "MDV072" in codes  # zero scale
    assert "MDV073" in codes  # affine over string properties


def test_mdv074_unsatisfiable_mapped_equality():
    mdp = MetadataProvider(
        marketplace_schema(), name="lint74", semantics="mappings"
    )
    try:
        # price = 50 pushed through the inverse of scale 0.03 lands on
        # priceCents = 1666.66… — an INTEGER-typed property can never
        # publish that value.
        mdp.register_affine_mapping("priceCents", "price", scale=0.03)
        mdp.subscribe("hunter", "search Listing l register l where l.price = 50")
        report = audit_vocabulary(mdp.db, marketplace_schema())
        assert any(
            d.code == "MDV074" and "priceCents" in d.message for d in report
        )
    finally:
        mdp.close()
