"""Unit tests for the Local Metadata Repository (LMR)."""

import pytest

from repro.errors import NetworkError, SubscriptionError
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.net.bus import NetworkBus
from repro.rdf.model import Document, URIRef


def make_doc(index, host="a.uni-passau.de", memory=92, cpu=600):
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", host)
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", cpu)
    return doc


PASSAU_RULE = (
    "search CycleProvider c register c "
    "where c.serverHost contains 'passau'"
)


@pytest.fixture()
def world(schema):
    mdp = MetadataProvider(schema, name="mdp")
    lmr = LocalMetadataRepository("lmr", mdp)
    return mdp, lmr


class TestSubscriptionLifecycle:
    def test_subscribe_fills_cache(self, world):
        mdp, lmr = world
        mdp.register_document(make_doc(1))
        lmr.subscribe(PASSAU_RULE)
        assert "doc1.rdf#host" in lmr.cache
        assert "doc1.rdf#info" in lmr.cache  # strong closure

    def test_duplicate_subscription_rejected(self, world):
        __, lmr = world
        lmr.subscribe(PASSAU_RULE)
        with pytest.raises(SubscriptionError):
            lmr.subscribe(PASSAU_RULE)

    def test_unsubscribe_evicts(self, world):
        mdp, lmr = world
        mdp.register_document(make_doc(1))
        lmr.subscribe(PASSAU_RULE)
        lmr.unsubscribe(PASSAU_RULE)
        assert len(lmr.cache) == 0
        assert lmr.subscriptions() == []

    def test_unsubscribe_unknown(self, world):
        __, lmr = world
        with pytest.raises(SubscriptionError):
            lmr.unsubscribe(PASSAU_RULE)

    def test_or_rule_tracked_as_one(self, world):
        mdp, lmr = world
        rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau' "
            "or c.serverHost contains 'tum'"
        )
        lmr.subscribe(rule)
        mdp.register_document(make_doc(1, host="x.tum.de"))
        assert "doc1.rdf#host" in lmr.cache
        lmr.unsubscribe(rule)
        assert len(lmr.cache) == 0


    def test_failed_unsubscribe_can_be_retried(self, world, monkeypatch):
        mdp, lmr = world
        mdp.register_document(make_doc(1))
        lmr.subscribe(PASSAU_RULE)
        real_unsubscribe = mdp.unsubscribe

        def unreachable(subscriber, rule_text):
            raise NetworkError("provider unreachable")

        monkeypatch.setattr(mdp, "unsubscribe", unreachable)
        with pytest.raises(NetworkError):
            lmr.unsubscribe(PASSAU_RULE)
        # Nothing was cancelled anywhere: the LMR still holds the
        # subscription and its matches.
        assert lmr.subscriptions() == [PASSAU_RULE]
        assert "doc1.rdf#host" in lmr.cache

        monkeypatch.setattr(mdp, "unsubscribe", real_unsubscribe)
        lmr.unsubscribe(PASSAU_RULE)
        assert mdp.registry.subscriptions_of("lmr") == []
        assert lmr.subscriptions() == []
        assert len(lmr.cache) == 0
        # Subscribing again is a fresh subscription, not a duplicate.
        lmr.subscribe(PASSAU_RULE)
        assert "doc1.rdf#host" in lmr.cache

    @pytest.mark.parametrize("filler", [10, 100])
    def test_unsubscribe_visits_only_its_own_matches(
        self, world, filler
    ):
        mdp, lmr = world
        lmr.subscribe(PASSAU_RULE)
        lmr.subscribe(
            "search CycleProvider c register c "
            "where c.serverHost contains 'tum'"
        )
        for index in range(3):
            mdp.register_document(make_doc(index))
        for index in range(3, 3 + filler):
            mdp.register_document(make_doc(index, host="x.tum.de"))
        assert len(lmr.cache) == 2 * (3 + filler)
        visited = lmr.metrics.counter(
            "lmr.unsubscribe.entries_visited", {"lmr": "lmr"}
        )
        lmr.unsubscribe(PASSAU_RULE)
        # Three hosts matched, whatever the size of the cache.
        assert visited.value == 3
        assert len(lmr.cache) == 2 * filler


class TestCacheConsistency:
    def test_updates_propagate(self, world):
        mdp, lmr = world
        lmr.subscribe(
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64"
        )
        mdp.register_document(make_doc(1, memory=92))
        assert "doc1.rdf#host" in lmr.cache
        mdp.register_document(make_doc(1, memory=16))
        assert "doc1.rdf#host" not in lmr.cache
        mdp.register_document(make_doc(1, memory=512))
        assert "doc1.rdf#host" in lmr.cache
        assert (
            lmr.cache.resource("doc1.rdf#info").get_one("memory").value == 512
        )

    def test_deletion_propagates(self, world):
        mdp, lmr = world
        lmr.subscribe(PASSAU_RULE)
        mdp.register_document(make_doc(1))
        mdp.delete_document("doc1.rdf")
        assert len(lmr.cache) == 0

    def test_overlapping_rules_keep_resource(self, world):
        mdp, lmr = world
        lmr.subscribe(PASSAU_RULE)
        lmr.subscribe(
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64"
        )
        mdp.register_document(make_doc(1))
        # Memory falls: rule 2 unmatches, rule 1 (host) still holds.
        mdp.register_document(make_doc(1, memory=16))
        assert "doc1.rdf#host" in lmr.cache
        lmr.unsubscribe(PASSAU_RULE)
        assert "doc1.rdf#host" not in lmr.cache


class TestLocalQueries:
    def test_query_over_cache(self, world):
        mdp, lmr = world
        lmr.subscribe(PASSAU_RULE)
        mdp.register_document(make_doc(1))
        mdp.register_document(make_doc(2, host="x.tum.de"))
        results = lmr.query("search CycleProvider c")
        assert [str(r.uri) for r in results] == ["doc1.rdf#host"]

    def test_query_sees_strong_children(self, world):
        mdp, lmr = world
        lmr.subscribe(PASSAU_RULE)
        mdp.register_document(make_doc(1))
        results = lmr.query("search ServerInformation s where s.memory > 1")
        assert [str(r.uri) for r in results] == ["doc1.rdf#info"]

    def test_query_includes_local_metadata(self, world):
        __, lmr = world
        local = Document("local.rdf")
        info = local.new_resource("secret", "ServerInformation")
        info.add("memory", 1024)
        lmr.register_local_document(local)
        results = lmr.query("search ServerInformation s where s.memory > 512")
        assert [str(r.uri) for r in results] == ["local.rdf#secret"]

    def test_local_metadata_not_forwarded(self, world):
        mdp, lmr = world
        local = Document("local.rdf")
        local.new_resource("secret", "ServerInformation").add("memory", 1)
        lmr.register_local_document(local)
        assert mdp.document_count() == 0

    def test_register_document_forwards_to_mdp(self, world):
        mdp, lmr = world
        lmr.register_document(make_doc(1))
        assert mdp.document_count() == 1

    def test_delete_document_forwards(self, world):
        mdp, lmr = world
        lmr.register_document(make_doc(1))
        lmr.delete_document("doc1.rdf")
        assert mdp.document_count() == 0


class TestOverTheBus:
    def test_full_cycle_over_bus(self, schema):
        bus = NetworkBus()
        mdp = MetadataProvider(schema, name="mdp", bus=bus)
        lmr = LocalMetadataRepository("lmr", mdp, bus=bus)
        lmr.subscribe(PASSAU_RULE)
        mdp.register_document(make_doc(1))
        assert "doc1.rdf#host" in lmr.cache
        # subscribe request + notification batch crossed the bus.
        assert bus.total_messages >= 2

    def test_local_query_costs_no_messages(self, schema):
        bus = NetworkBus()
        mdp = MetadataProvider(schema, name="mdp", bus=bus)
        lmr = LocalMetadataRepository("lmr", mdp, bus=bus)
        lmr.subscribe(PASSAU_RULE)
        mdp.register_document(make_doc(1))
        before = bus.total_messages
        lmr.query("search CycleProvider c")
        assert bus.total_messages == before

    def test_stats(self, world):
        mdp, lmr = world
        lmr.subscribe(PASSAU_RULE)
        mdp.register_document(make_doc(1))
        stats = lmr.stats()
        assert stats["entries"] == 2
        assert stats["notifications"] >= 1


class TestNamedExtensionQueries:
    def test_local_query_with_named_extension(self, schema):
        mdp = MetadataProvider(schema)
        mdp.register_named_rule(
            "PassauHosts",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        lmr = LocalMetadataRepository("lmr", mdp)
        lmr.subscribe("search CycleProvider c register c")
        mdp.register_document(make_doc(1))
        mdp.register_document(make_doc(2, host="x.tum.de"))
        results = lmr.query("search PassauHosts p")
        assert [str(r.uri) for r in results] == ["doc1.rdf#host"]

    def test_definitions_fetched_once_over_bus(self, schema):
        bus = NetworkBus()
        mdp = MetadataProvider(schema, name="mdp", bus=bus)
        mdp.register_named_rule(
            "PassauHosts",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        lmr = LocalMetadataRepository("lmr", mdp, bus=bus)
        lmr.subscribe("search CycleProvider c register c")
        mdp.register_document(make_doc(1))
        before = bus.total_messages
        lmr.query("search PassauHosts p")
        after_first = bus.total_messages
        lmr.query("search PassauHosts p")
        assert after_first == before + 1     # one fetch
        assert bus.total_messages == after_first  # cached afterwards

    def test_plain_queries_never_fetch(self, schema):
        bus = NetworkBus()
        mdp = MetadataProvider(schema, name="mdp", bus=bus)
        lmr = LocalMetadataRepository("lmr", mdp, bus=bus)
        lmr.subscribe("search CycleProvider c register c")
        mdp.register_document(make_doc(1))
        before = bus.total_messages
        lmr.query("search CycleProvider c")
        assert bus.total_messages == before
