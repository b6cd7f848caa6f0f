"""Unit tests for the Metadata Provider (MDP)."""

import pytest

from repro.errors import (
    DocumentNotFoundError,
    SchemaValidationError,
    SubscriptionError,
    UnknownClassError,
)
from repro.mdv.provider import MetadataProvider
from repro.rdf.model import Document, URIRef
from repro.rdf.serializer import to_rdfxml


def make_doc(index, host="a.uni-passau.de", memory=92, cpu=600):
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", host)
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", cpu)
    return doc


@pytest.fixture()
def mdp(schema):
    return MetadataProvider(schema, name="mdp-test")


class CollectingSubscriber:
    def __init__(self, mdp, name="collector"):
        self.name = name
        self.batches = []
        mdp.connect_subscriber(name, self.batches.append)


class TestDocumentAdministration:
    def test_register_and_lookup(self, mdp):
        mdp.register_document(make_doc(1))
        assert mdp.document_count() == 1
        assert mdp.resource_count() == 2
        resource = mdp.resource("doc1.rdf#host")
        assert resource is not None
        assert resource.rdf_class == "CycleProvider"

    def test_register_from_xml(self, mdp, schema):
        xml = to_rdfxml(make_doc(1))
        mdp.register_document(xml, document_uri="doc1.rdf")
        assert mdp.resource("doc1.rdf#info") is not None

    def test_xml_requires_uri(self, mdp):
        with pytest.raises(ValueError):
            mdp.register_document("<rdf:RDF/>")

    def test_invalid_document_rejected(self, mdp):
        doc = Document("bad.rdf")
        doc.new_resource("x", "Mystery")
        with pytest.raises(SchemaValidationError):
            mdp.register_document(doc)
        assert mdp.document_count() == 0

    def test_reregistration_is_update(self, mdp):
        mdp.register_document(make_doc(1, memory=92))
        mdp.register_document(make_doc(1, memory=256))
        assert mdp.document_count() == 1
        assert (
            mdp.resource("doc1.rdf#info").get_one("memory").value == 256
        )

    def test_delete_document(self, mdp):
        mdp.register_document(make_doc(1))
        mdp.delete_document("doc1.rdf")
        assert mdp.document_count() == 0
        assert mdp.resource("doc1.rdf#host") is None
        assert mdp.resource_count() == 0

    def test_reregistering_an_object_edited_in_place_notifies(self, schema):
        """Regression: the provider kept the caller's object as its
        stored copy, so an object edited in place and registered again
        was diffed against itself and notified nobody."""
        from repro.mdv.repository import LocalMetadataRepository
        from repro.workload.documents import benchmark_document

        mdp = MetadataProvider(schema)
        lmr = LocalMetadataRepository("lmr", mdp)
        lmr.subscribe(
            "search CycleProvider c register c where c.synthValue > 10"
        )
        document = benchmark_document(1, synth_value=5)
        mdp.register_document(document)
        document.get("doc1.rdf#host").set("synthValue", 50)
        outcome = mdp.register_document(document)
        assert [str(uri) for uris in outcome.matched.values() for uri in uris] == [
            "doc1.rdf#host"
        ]
        assert "doc1.rdf#host" in lmr.cache
        assert mdp.db.scalar(
            "SELECT value FROM filter_data WHERE "
            "uri_reference = 'doc1.rdf#host' AND property = 'synthValue'"
        ) == "50"
        # What document() hands out is a copy, not the stored state.
        copy = mdp.document("doc1.rdf")
        copy.get("doc1.rdf#host").set("synthValue", 7)
        host = mdp.resource("doc1.rdf#host")
        assert host.get_one("synthValue").value == 50

    def test_delete_unknown_document(self, mdp):
        with pytest.raises(DocumentNotFoundError):
            mdp.delete_document("ghost.rdf")

    def test_uri_ownership_enforced(self, mdp, schema):
        mdp.register_document(make_doc(1))
        thief = Document("thief.rdf")
        stolen = thief.new_resource("host", "CycleProvider")
        del stolen
        # A *different* document claiming an existing resource URI is
        # not representable through Document (URIs derive from the doc),
        # so check the guard directly on the resources table.
        evil = Document("doc1.rdf")
        evil.new_resource("host", "CycleProvider")
        # Same document URI: allowed (it is an update).
        mdp.register_document(evil)


class TestSubscriptions:
    def test_subscribe_receives_existing_matches(self, mdp, schema):
        mdp.register_document(make_doc(1))
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(
            collector.name,
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        assert len(collector.batches) == 1
        (batch,) = collector.batches
        assert batch.notifications[0].uri == "doc1.rdf#host"

    def test_subscribe_then_register_notifies(self, mdp):
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(
            collector.name,
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        assert collector.batches == []
        mdp.register_document(make_doc(1))
        assert len(collector.batches) == 1

    def test_or_rule_split_into_conjunct_subscriptions(self, mdp):
        collector = CollectingSubscriber(mdp)
        subs = mdp.subscribe(
            collector.name,
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau' "
            "or c.serverHost contains 'tum'",
        )
        assert len(subs) == 2
        mdp.register_document(make_doc(1, host="x.tum.de"))
        assert len(collector.batches) == 1

    def test_unsubscribe_stops_notifications(self, mdp):
        collector = CollectingSubscriber(mdp)
        rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        mdp.subscribe(collector.name, rule)
        mdp.unsubscribe(collector.name, rule)
        mdp.register_document(make_doc(1))
        assert collector.batches == []

    def test_unsubscribe_or_rule_removes_all_conjuncts(self, mdp):
        collector = CollectingSubscriber(mdp)
        rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau' "
            "or c.serverHost contains 'tum'"
        )
        mdp.subscribe(collector.name, rule)
        mdp.unsubscribe(collector.name, rule)
        assert mdp.registry.subscriptions_of(collector.name) == []

    def test_unsubscribe_unknown_raises(self, mdp):
        with pytest.raises(SubscriptionError):
            mdp.unsubscribe("ghost", "search CycleProvider c register c")

    def test_update_sends_unmatch(self, mdp):
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(
            collector.name,
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64",
        )
        mdp.register_document(make_doc(1, memory=92))
        mdp.register_document(make_doc(1, memory=16))
        from repro.pubsub.notifications import UnmatchNotification

        last = collector.batches[-1]
        assert any(
            isinstance(n, UnmatchNotification) for n in last.notifications
        )


class TestNamedRules:
    def test_named_rule_as_extension(self, mdp):
        mdp.register_named_rule(
            "PassauHosts",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(
            collector.name,
            "search PassauHosts p register p "
            "where p.serverInformation.memory > 64",
        )
        mdp.register_document(make_doc(1, memory=92))  # passau + 92
        mdp.register_document(make_doc(2, host="x.tum.de", memory=92))
        matched = {
            n.uri
            for batch in collector.batches
            for n in batch.notifications
        }
        assert matched == {URIRef("doc1.rdf#host")}

    def test_named_rule_with_existing_data(self, mdp):
        mdp.register_document(make_doc(1))
        mdp.register_named_rule(
            "PassauHosts",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(
            collector.name, "search PassauHosts p register p"
        )
        assert len(collector.batches) == 1

    def test_a_named_rule_is_read_once_and_then_kept(self, mdp, monkeypatch):
        """The named rules are read from the store by the first compile;
        a later registration updates what compilation sees in place."""
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(collector.name, "search CycleProvider c register c")
        mdp.register_named_rule("Passau", self.PASSAU)
        reads = []
        query_all = mdp.db.query_all

        def logged(sql, *args):
            if "FROM named_rules" in sql:
                reads.append(sql)
            return query_all(sql, *args)

        monkeypatch.setattr(mdp.db, "query_all", logged)
        mdp.subscribe(collector.name, "search Passau p register p")
        assert reads == []
        assert mdp.registry.named_rule_types() == {"Passau": "CycleProvider"}

    def test_a_rolled_back_named_rule_leaves_compilation(
        self, mdp, monkeypatch
    ):
        collector = CollectingSubscriber(mdp)
        mdp.subscribe(collector.name, "search CycleProvider c register c")

        def fail(created):
            raise RuntimeError("initialization failed")

        monkeypatch.setattr(mdp.engine, "initialize_rules", fail)
        with pytest.raises(RuntimeError):
            mdp.register_named_rule("Passau", self.PASSAU)
        monkeypatch.undo()
        assert mdp.registry.named_rule("Passau") is None
        assert "Passau" not in mdp.registry.named_rule_types()
        with pytest.raises(UnknownClassError):
            mdp.subscribe(collector.name, "search Passau p register p")
        mdp.register_named_rule("Passau", self.PASSAU)
        mdp.register_document(make_doc(1))
        mdp.subscribe(collector.name, "search Passau p register p")
        assert mdp.browse("search Passau p")[0].uri == URIRef("doc1.rdf#host")

    PASSAU = (
        "search CycleProvider c register c where c.serverHost contains 'passau'"
    )

    def test_or_in_named_rule_rejected(self, mdp):
        with pytest.raises(SubscriptionError):
            mdp.register_named_rule(
                "Bad",
                "search CycleProvider c register c "
                "where c.serverHost contains 'a' or c.serverHost contains 'b'",
            )


class TestBrowse:
    def test_browse_returns_content(self, mdp):
        mdp.register_document(make_doc(1))
        mdp.register_document(make_doc(2, host="x.tum.de"))
        results = mdp.browse(
            "search CycleProvider c where c.serverHost contains 'tum'"
        )
        assert [str(r.uri) for r in results] == ["doc2.rdf#host"]

    def test_browse_with_named_extension(self, mdp):
        mdp.register_named_rule(
            "PassauHosts",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        mdp.register_document(make_doc(1))
        results = mdp.browse("search PassauHosts p")
        assert [str(r.uri) for r in results] == ["doc1.rdf#host"]


class TestSchemaExchange:
    def test_schema_document_roundtrips(self, mdp, schema):
        from repro.rdf.schema_io import parse_schema

        xml = mdp.schema_document()
        parsed = parse_schema(xml)
        assert sorted(parsed.class_names()) == sorted(schema.class_names())
        assert parsed.property_def(
            "CycleProvider", "serverInformation"
        ).is_strong

    def test_schema_over_the_bus(self, schema):
        from repro.net.bus import NetworkBus
        from repro.rdf.schema_io import parse_schema

        bus = NetworkBus()
        mdp = MetadataProvider(schema, name="mdp", bus=bus)
        xml = bus.send("newcomer", "mdp", "schema", None)
        assert parse_schema(xml).has_class("CycleProvider")


class TestEngineConfiguration:
    def test_join_evaluation_parameter(self, schema):
        probe = MetadataProvider(schema, join_evaluation="probe")
        assert probe.engine.join_evaluation == "probe"
        with pytest.raises(ValueError):
            MetadataProvider(schema, join_evaluation="psychic")

    def test_probe_provider_behaves_identically(self, schema):
        results = {}
        for mode in ("scan", "probe"):
            mdp = MetadataProvider(schema, join_evaluation=mode)
            mdp.connect_subscriber("lmr", lambda batch: None)
            mdp.subscribe(
                "lmr",
                "search CycleProvider c register c "
                "where c.serverInformation.memory > 64",
            )
            mdp.register_document(make_doc(1, memory=92))
            mdp.register_document(make_doc(1, memory=16))
            end = mdp.registry.subscriptions_of("lmr")[0].end_rule
            results[mode] = mdp.engine.current_matches(end)
        assert results["scan"] == results["probe"] == []


class TestSchemaBootstrap:
    def test_lmr_bootstraps_from_fetched_schema(self, schema):
        """A newcomer can build its local Schema from the wire format."""
        from repro.rdf.schema_io import parse_schema

        mdp = MetadataProvider(schema, name="mdp-src")
        fetched_schema = parse_schema(mdp.schema_document())
        from repro.mdv.repository import LocalMetadataRepository

        lmr = LocalMetadataRepository(
            "newcomer", mdp, schema=fetched_schema
        )
        lmr.subscribe(
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        mdp.register_document(make_doc(9))
        # Strong-ref closure still works: it relies on the fetched
        # schema's strength annotations surviving the round trip.
        assert "doc9.rdf#info" in lmr.cache
        assert lmr.query("search CycleProvider c")
