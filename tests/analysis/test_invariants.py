"""Auditor tests: hand-corrupt a store and expect precise findings."""

import pytest

from repro.analysis import audit_database
from repro.analysis.diagnostics import Severity
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema

JOIN_RULE = (
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64"
)


@pytest.fixture()
def mdp():
    provider = MetadataProvider(objectglobe_schema())
    provider.subscribe("lmr1", JOIN_RULE)
    provider.subscribe(
        "lmr2", "search CycleProvider c register c where c.serverPort > 5"
    )
    return provider


def codes(report):
    return sorted({d.code for d in report})


def forge(db, sql, parameters=()):
    """Run corrupting SQL with foreign-key enforcement suspended."""
    db.execute("PRAGMA foreign_keys = OFF")
    try:
        db.execute(sql, parameters)
    finally:
        db.execute("PRAGMA foreign_keys = ON")


def test_pristine_store_is_clean(mdp):
    report = audit_database(mdp.db)
    assert report.is_clean
    assert report.exit_code() == 0


def test_empty_store_is_clean(db):
    assert audit_database(db).is_clean


def test_corrupted_refcount(mdp):
    mdp.db.execute(
        "UPDATE atomic_rules SET refcount = refcount + 2 WHERE rule_id = "
        "(SELECT MIN(rule_id) FROM atomic_rules)"
    )
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV031"]
    (diagnostic,) = report
    assert diagnostic.severity is Severity.ERROR
    assert "refcount" in diagnostic.message


def test_forged_dependency_cycle(mdp):
    join_id = mdp.db.scalar(
        "SELECT rule_id FROM atomic_rules WHERE kind = 'join' "
        "ORDER BY rule_id DESC LIMIT 1"
    )
    ancestor = mdp.db.scalar(
        "SELECT source_rule FROM rule_dependencies WHERE target_rule = ?",
        (join_id,),
    )
    # Close the loop: the join now feeds its own input.
    mdp.db.execute(
        "INSERT INTO rule_dependencies (source_rule, target_rule, side) "
        "VALUES (?, ?, 'left')",
        (join_id, ancestor),
    )
    report = audit_database(mdp.db)
    assert "MDV030" in codes(report)


def test_orphaned_index_row(mdp):
    forge(
        mdp.db,
        "INSERT INTO filter_rules_gt (rule_id, class, property, value, "
        "numeric) VALUES (9999, 'CycleProvider', 'serverPort', '1', 1)",
    )
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV032"]


def test_triggering_atom_without_index_rows(mdp):
    rule_id = mdp.db.scalar("SELECT rule_id FROM filter_rules_gt LIMIT 1")
    mdp.db.execute(
        "DELETE FROM filter_rules_gt WHERE rule_id = ?", (rule_id,)
    )
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV033"]


def test_tampered_group_signature(mdp):
    mdp.db.execute("UPDATE rule_groups SET operator = '<'")
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV034"]


def test_rewired_dependency_edge(mdp):
    join_id = mdp.db.scalar(
        "SELECT rule_id FROM atomic_rules WHERE kind = 'join' LIMIT 1"
    )
    other = mdp.db.scalar(
        "SELECT rule_id FROM atomic_rules WHERE kind = 'triggering' AND "
        "rule_id NOT IN (SELECT source_rule FROM rule_dependencies "
        "WHERE target_rule = ?) LIMIT 1",
        (join_id,),
    )
    mdp.db.execute(
        "UPDATE rule_dependencies SET source_rule = ? "
        "WHERE target_rule = ? AND side = 'left'",
        (other, join_id),
    )
    report = audit_database(mdp.db)
    assert "MDV035" in codes(report)


def test_deleted_dependency_edge_breaks_depth_bound(mdp):
    join_id = mdp.db.scalar(
        "SELECT rule_id FROM atomic_rules WHERE kind = 'join' "
        "ORDER BY rule_id DESC LIMIT 1"
    )
    mdp.db.execute(
        "DELETE FROM rule_dependencies WHERE target_rule = ?", (join_id,)
    )
    report = audit_database(mdp.db)
    found = codes(report)
    assert "MDV035" in found
    assert "MDV037" in found


def test_dangling_subscription_reference(mdp):
    forge(
        mdp.db,
        "INSERT INTO subscriptions (subscriber, rule_text, end_rule) "
        "VALUES ('ghost', 'search CycleProvider c register c', 9999)",
    )
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV036"]


def test_orphaned_materialized_row(mdp):
    mdp.db.execute(
        "INSERT INTO materialized (rule_id, uri_reference) "
        "VALUES (9999, 'doc.rdf#host')"
    )
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV038"]
    (diagnostic,) = report
    assert diagnostic.severity is Severity.WARNING
    assert report.exit_code() == 1


@pytest.mark.parametrize(
    ("sql", "source"),
    [
        (
            "DELETE FROM filter_data WHERE uri_reference = 'doc.rdf#info' "
            "AND property = 'rdf#subject'",
            "resources",
        ),
        (
            "DELETE FROM resources WHERE uri_reference = 'doc.rdf#info'",
            "filter_data",
        ),
    ],
    ids=["resource-without-subject-atom", "subject-without-resource-row"],
)
def test_document_store_disagreement(mdp, sql, source):
    from tests.conftest import figure1_document

    mdp.register_document(figure1_document())
    forge(mdp.db, sql)
    report = audit_database(mdp.db)
    assert codes(report) == ["MDV040"]
    (diagnostic,) = report
    assert diagnostic.severity is Severity.ERROR
    assert diagnostic.source == source
    assert "doc.rdf#info" in diagnostic.message


def test_audit_survives_unsubscription_cleanup(mdp):
    mdp.unsubscribe("lmr1", JOIN_RULE)
    assert audit_database(mdp.db).is_clean


def test_audit_clean_after_publishing(mdp):
    from tests.conftest import figure1_document

    mdp.register_document(figure1_document())
    assert audit_database(mdp.db).is_clean


@pytest.fixture()
def marketplace_mdp():
    from repro.workload.marketplace import (
        SUBSCRIPTIONS,
        listings,
        marketplace_schema,
        seed_vocabulary,
    )

    provider = MetadataProvider(
        marketplace_schema(), name="audit", semantics="mappings"
    )
    seed_vocabulary(provider)
    for subscriber, rule_text in SUBSCRIPTIONS:
        provider.subscribe(subscriber, rule_text)
    for doc in listings():
        provider.register_document(doc)
    yield provider
    provider.close()


def test_healthy_vocabulary_is_clean(marketplace_mdp):
    assert audit_database(marketplace_mdp.db).is_clean


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
    report = audit_database(db)
    assert codes(report) == ["MDV071"]
    assert len(report) == 2
    assert all(d.is_error for d in report)


def test_mdv071_cyclic_taxonomy_edges(marketplace_mdp):
    db = marketplace_mdp.db
    db.execute(
        "INSERT INTO semantic_taxonomy_edges (narrower, broader) "
        "VALUES ('vehicle', 'pickup')"
    )
    report = audit_database(db)
    assert "MDV071" in codes(report)
    assert any("cycle" in d.message for d in report)
