"""Tests for provider persistence (file-backed DB) and batch registration."""

import pytest

from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.rdf.model import Document, URIRef
from repro.storage.engine import Database


def make_doc(index, host="a.uni-passau.de", memory=92):
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", host)
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", 600)
    return doc


PASSAU_RULE = (
    "search CycleProvider c register c "
    "where c.serverHost contains 'passau'"
)


class TestPersistence:
    def test_reopen_restores_documents_and_rules(self, schema, tmp_path):
        path = str(tmp_path / "mdp.sqlite")
        first = MetadataProvider(schema, db=Database(path))
        first.connect_subscriber("lmr", lambda batch: None)
        first.subscribe("lmr", PASSAU_RULE)
        first.register_document(make_doc(1))
        first.db.commit()
        first.db.close()

        second = MetadataProvider(schema, db=Database(path))
        assert second.document_count() == 1
        resource = second.resource("doc1.rdf#host")
        assert resource is not None
        assert resource.get_one("serverHost").value == "a.uni-passau.de"
        # The rule catalogue survived too.
        assert len(second.registry.subscriptions_of("lmr")) == 1
        second.db.close()

    def test_update_after_reopen_publishes_correct_diff(self, schema, tmp_path):
        path = str(tmp_path / "mdp.sqlite")
        first = MetadataProvider(schema, db=Database(path))
        first.connect_subscriber("lmr", lambda batch: None)
        first.subscribe(
            "lmr",
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64",
        )
        first.register_document(make_doc(1, memory=92))
        first.db.commit()
        first.db.close()

        second = MetadataProvider(schema, db=Database(path))
        batches = []
        second.connect_subscriber("lmr", batches.append)
        outcome = second.register_document(make_doc(1, memory=16))
        assert outcome.unmatched  # the stored match was found and revoked
        assert batches
        second.db.close()

    def test_browse_after_reopen(self, schema, tmp_path):
        path = str(tmp_path / "mdp.sqlite")
        first = MetadataProvider(schema, db=Database(path))
        first.register_document(make_doc(1))
        first.db.commit()
        first.db.close()
        second = MetadataProvider(schema, db=Database(path))
        results = second.browse("search CycleProvider c")
        assert [str(r.uri) for r in results] == ["doc1.rdf#host"]
        second.db.close()


class TestBatchRegistration:
    def test_batch_single_filter_run(self, schema):
        mdp = MetadataProvider(schema)
        lmr = LocalMetadataRepository("lmr", mdp)
        lmr.subscribe(PASSAU_RULE)
        runs_before = mdp.engine.runs_executed
        outcome = mdp.register_documents([make_doc(i) for i in range(5)])
        assert mdp.engine.runs_executed == runs_before + 1
        assert mdp.document_count() == 5
        assert sum(len(v) for v in outcome.matched.values()) == 5
        assert len(lmr.cache) == 10  # 5 hosts + 5 strong children

    def test_batch_with_updates_falls_back(self, schema):
        mdp = MetadataProvider(schema)
        lmr = LocalMetadataRepository("lmr", mdp)
        lmr.subscribe(
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64"
        )
        mdp.register_document(make_doc(0, memory=92))
        outcome = mdp.register_documents(
            [make_doc(0, memory=16), make_doc(1, memory=128)]
        )
        # doc0 update revoked, doc1 fresh match — both in one outcome.
        assert outcome.unmatched
        assert any(
            URIRef("doc1.rdf#host") in uris
            for uris in outcome.matched.values()
        )
        assert "doc0.rdf#host" not in lmr.cache
        assert "doc1.rdf#host" in lmr.cache

    def test_batch_validates_every_document(self, schema):
        from repro.errors import SchemaValidationError

        mdp = MetadataProvider(schema)
        bad = Document("bad.rdf")
        bad.new_resource("x", "Mystery")
        with pytest.raises(SchemaValidationError):
            mdp.register_documents([make_doc(1), bad])
        # Nothing was registered: validation precedes any state change.
        assert mdp.document_count() == 0

    def test_batch_replicates_in_backbone(self, schema):
        from repro.mdv.backbone import Backbone

        backbone = Backbone(schema)
        origin = backbone.add_provider("a")
        peer = backbone.add_provider("b")
        origin.register_documents([make_doc(i) for i in range(3)])
        assert peer.document_count() == 3
        assert backbone.is_synchronized()

    def test_empty_batch_is_noop(self, schema):
        mdp = MetadataProvider(schema)
        outcome = mdp.register_documents([])
        assert not outcome.has_notifications

    def test_same_uri_twice_in_one_batch_equals_two_calls(self, schema):
        """Regression: both versions used to be ingested as fresh, which
        left the first one's atoms and materialized rows behind."""

        def system():
            mdp = MetadataProvider(schema)
            lmr = LocalMetadataRepository("lmr", mdp)
            stream = []

            def record(batch):
                stream.append(list(batch.notifications))
                return lmr.apply_batch(batch)

            mdp.connect_subscriber("lmr", record)
            for memory in (1, 2):
                lmr.subscribe(
                    "search CycleProvider c register c "
                    f"where c.serverInformation.memory = {memory}"
                )
            return mdp, lmr, stream

        def state(mdp, lmr):
            tables = {
                table: sorted(
                    tuple(row) for row in mdp.db.query_all(
                        f"SELECT {columns} FROM {table}"
                    )
                )
                for table, columns in (
                    ("filter_data", "*"), ("materialized", "*"),
                    ("resources", "*"), ("documents", "uri, xml"),
                    ("doc_versions", "*"),
                )
            }
            cache = {
                str(uri): (
                    lmr.cache.get(uri).resource,
                    set(lmr.cache.get(uri).matched_subs),
                    lmr.cache.get(uri).strong_refcount,
                )
                for uri in lmr.cache.uris()
            }
            return tables, cache

        versions = [
            make_doc(0, memory=7), make_doc(1, memory=1),
            make_doc(1, memory=2), make_doc(2, memory=2),
        ]
        batched, batched_lmr, batched_stream = system()
        batched.register_documents(versions)
        serial, serial_lmr, serial_stream = system()
        for document in versions:
            serial.register_document(document)

        assert state(batched, batched_lmr) == state(serial, serial_lmr)
        flat = [n for batch in batched_stream for n in batch]
        assert flat == [n for batch in serial_stream for n in batch]
        browsed = batched.browse(
            "search ServerInformation s where s.memory = 1"
        )
        assert browsed == []
        assert batched.resource("doc1.rdf#info").get_one("memory").value == 2
