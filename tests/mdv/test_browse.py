"""MDP browse through the filter's own rule initialisation.

``MetadataProvider.browse`` merges the query into the rule base,
initializes the new atoms over the stored metadata and reads the end
rules' matches, in one provider operation that always rolls back.  These
tests pin what that promises: the answer equals the subscription's, the
store and every in-memory mirror of it are left exactly as they were,
and the cost grows linearly with the stored documents.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import (
    CrashError,
    DecompositionError,
    RuleError,
    SubscriptionError,
)
from repro.filter.counting import _entries_of
from repro.mdv.provider import MetadataProvider
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.storage.durability import CrashPlan
from repro.storage.schema import TRIGGER_TABLES
from tests.conftest import count_vm_steps

SCHEMA = objectglobe_schema()
TRIGGERING = ("sql", "counting")

PATH = "search CycleProvider c where c.serverInformation.cpu >= 600"
JOIN = (
    "search ServerInformation s, CycleProvider c "
    "where c.serverInformation = s and c.serverHost contains 'tum'"
)
#: Queries that create atoms, groups and dependencies when browsed.
TRANSIENT = [
    PATH,
    JOIN,
    "search CycleProvider c where c.serverHost = 'b.tum.de' "
    "or c.serverInformation.memory > 64",
]
LIVE = "search CycleProvider c register c where c.serverPort = 443"
CYCLIC = (
    "search CycleProvider a, CycleProvider b "
    "where a.serverPort = b.serverPort and a.serverHost = b.serverHost"
)


def host_document(index: int, hit: bool = False) -> Document:
    """One host and its server information; ``hit`` hosts match every
    query above."""
    doc = Document(f"doc{index}.rdf")
    host = doc.new_resource("host", "CycleProvider")
    host.add("serverHost", "b.tum.de" if hit else f"h{index}.uni-passau.de")
    host.add("serverPort", 443 if hit else 80)
    host.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", 128 if hit else 32)
    info.add("cpu", 700 if hit else 100)
    return doc


def loaded(triggering: str, count: int = 6, **options) -> MetadataProvider:
    mdp = MetadataProvider(SCHEMA, triggering=triggering, **options)
    mdp.register_documents(
        [host_document(i, hit=i < 2) for i in range(count)]
    )
    return mdp


def uris(resources) -> list[str]:
    return [str(resource.uri) for resource in resources]


def digest(mdp: MetadataProvider) -> str:
    """The rule base, its triggering rows and results, and the counting
    matcher's index after its next refresh."""
    tables = [
        "atomic_rules", "rule_groups", "rule_dependencies", "materialized",
        "subscriptions", "subscription_rules", "sqlite_sequence",
        *TRIGGER_TABLES,
    ]
    parts = [
        (table, sorted(tuple(row) for row in mdp.db.query_all(
            f"SELECT * FROM {table}"
        )))
        for table in tables
    ]
    matcher = mdp.engine._counting_matcher()
    parts.append(sorted(
        (rule_id, sorted(map(repr, _entries_of(record))))
        for rule_id, record in matcher._idx_entries.items()
    ))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("triggering", TRIGGERING)
def test_browse_leaves_no_trace(triggering):
    mdp = loaded(triggering, semantics="synonyms")
    mdp.register_synonyms("value", ["b.tum.de", "tum-host"])
    mdp.subscribe("lmr", LIVE)
    mdp.subscribe("lmr", "search CycleProvider c register c "
                         "where c.serverInformation.memory > 64")
    before = digest(mdp)
    expanded = mdp.metrics.counter("semantics.atoms_out").value
    top = mdp.db.scalar("SELECT MAX(rule_id) FROM atomic_rules")
    for text in TRANSIENT:
        assert uris(mdp.browse(text))
    # The browses did write — semantic rows included — and rolled back.
    assert mdp.metrics.counter("semantics.atoms_out").value > expanded
    assert digest(mdp) == before
    with pytest.raises(SubscriptionError):
        mdp.registry.load_atom(top + 1)
    mdp.close()


@pytest.mark.parametrize("triggering", TRIGGERING)
def test_publish_after_browse_notifies_like_a_twin(triggering):
    batches = {}
    providers = {}
    for name in ("browsed", "twin"):
        mdp = loaded(triggering)
        batches[name] = []
        mdp.connect_subscriber("lmr", batches[name].append)
        mdp.subscribe("lmr", LIVE)
        mdp.subscribe("lmr", "search CycleProvider c register c "
                             "where c.serverInformation.cpu >= 600")
        providers[name] = mdp
    for text in TRANSIENT:
        providers["browsed"].browse(text)
    for mdp in providers.values():
        mdp.register_document(host_document(40, hit=True))
        updated = host_document(0, hit=False)
        mdp.register_document(updated)
        mdp.delete_document("doc1.rdf")
        mdp.subscribe("lmr", JOIN.replace(" where", " register s where"))
    assert batches["browsed"] == batches["twin"]
    assert len(batches["browsed"]) > 2
    for mdp in providers.values():
        mdp.close()


@pytest.mark.parametrize("triggering", TRIGGERING)
def test_browsing_a_live_rule_writes_nothing(triggering):
    mdp = loaded(triggering)
    (subscription,) = mdp.subscribe("lmr", LIVE)
    changes = mdp.db.connection.total_changes
    browsed = uris(mdp.browse(LIVE.replace(" register c", "")))
    assert browsed == sorted(
        str(uri) for uri in mdp.engine.current_matches(subscription.end_rule)
    )
    assert browsed == ["doc0.rdf#host", "doc1.rdf#host"]
    assert mdp.db.connection.total_changes == changes
    mdp.close()


@pytest.mark.parametrize("triggering", TRIGGERING)
def test_browse_equals_the_initial_batch(triggering):
    mdp = loaded(triggering)
    for index, text in enumerate(TRANSIENT):
        browsed = uris(mdp.browse(text))
        register = "s" if text.startswith("search ServerInformation") else "c"
        rule = text.replace(" where", f" register {register} where", 1)
        mdp.subscribe(f"lmr{index}", rule)
        subscribed = sorted({
            str(uri)
            for subscription in mdp.registry.subscriptions_of(f"lmr{index}")
            for uri in mdp.engine.current_matches(subscription.end_rule)
        })
        assert browsed == subscribed, text
    mdp.close()


@pytest.mark.parametrize("triggering", TRIGGERING)
def test_cyclic_query_is_a_rule_error(triggering):
    mdp = loaded(triggering)
    before = digest(mdp)
    with pytest.raises(DecompositionError):
        mdp.browse(CYCLIC)
    with pytest.raises(RuleError):
        mdp.subscribe("lmr", CYCLIC.replace(" where", " register a where"))
    assert digest(mdp) == before
    mdp.close()


@pytest.mark.parametrize("triggering", TRIGGERING)
def test_rolled_back_atoms_leave_the_node_cache(triggering):
    """A rolled-back operation's atom ids are reused by the next insert,
    so no cached node may outlive them."""
    mdp = loaded(triggering)
    top = mdp.db.scalar("SELECT COALESCE(MAX(rule_id), 0) FROM atomic_rules")
    mdp.db.install_crash_plan(CrashPlan(crash_at_statement=8))
    with pytest.raises(CrashError):
        mdp.subscribe("lmr", PATH.replace(" where", " register c where"))
    mdp.db.clear_crash_plan()
    assert mdp.db.count("atomic_rules") == 0
    with pytest.raises(SubscriptionError):
        mdp.registry.load_atom(top + 1)
    mdp.browse(PATH)
    with pytest.raises(SubscriptionError):
        mdp.registry.load_atom(top + 1)
    # The id is reused, and reads back as the atom now stored under it.
    (subscription,) = mdp.subscribe("lmr", LIVE)
    assert mdp.registry.load_atom(top + 1).key == mdp.db.scalar(
        "SELECT rule_text FROM atomic_rules WHERE rule_id = ?", (top + 1,)
    )
    assert subscription.end_rule == top + 1
    mdp.close()


@pytest.mark.parametrize("text", [PATH, JOIN], ids=["path", "join"])
def test_browse_cost_is_linear_in_documents(text):
    """From 30 to 300 documents at a fixed two matches, browse VM steps
    grow about 7x (the class atom materializes every host); the deleted
    EXISTS translation grew about 100x."""
    steps = {}
    for count in (30, 300):
        mdp = loaded("sql", count=count)
        answer = []
        steps[count] = count_vm_steps(
            mdp.db, lambda: answer.extend(mdp.browse(text))
        )
        assert len(answer) == 2
        mdp.close()
    assert steps[300] <= 12 * steps[30], steps
