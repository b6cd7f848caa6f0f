"""Provider snapshot/restore and LMR catch-up-from-snapshot."""

import os

from repro.analysis.invariants import audit_database
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.workload.differential import resource_snapshot
from repro.workload.documents import benchmark_document, document_uri
from repro.workload.rules import comp_rule, con_rule, con_token


def populated_provider(schema):
    mdp = MetadataProvider(schema, name="mdp", durable_delivery=True)
    lmr = LocalMetadataRepository("lmr", mdp)
    lmr.subscribe(comp_rule(2))
    lmr.subscribe(con_rule(1))
    token = con_token(1)
    for index in range(4):
        host = f"host{index}.{token}.example.org" if index % 2 else None
        mdp.register_document(
            benchmark_document(index, synth_value=index * 3, server_host=host)
        )
    return mdp, lmr


def cache_image(lmr):
    return sorted(
        resource_snapshot(resource) for resource in lmr.cache.resources()
    )


class TestProviderSnapshot:
    def test_snapshot_is_independent_copy(self, schema):
        mdp, _ = populated_provider(schema)
        snap = mdp.snapshot()
        docs = snap.count("documents")
        assert docs == mdp.document_count()
        mdp.register_document(benchmark_document(9, synth_value=1))
        assert snap.count("documents") == docs  # unchanged
        snap.close()

    def test_snapshot_to_file_with_durability_override(self, schema, tmp_path):
        mdp, _ = populated_provider(schema)
        path = os.fspath(tmp_path / "snap.db")
        snap = mdp.snapshot(path, durability="safe")
        assert snap.path == path
        assert snap.durability == "safe"
        assert snap.count("documents") == mdp.document_count()
        snap.close()

    def test_new_provider_resumes_from_snapshot(self, schema):
        mdp, lmr = populated_provider(schema)
        snap = mdp.snapshot()
        assert not audit_database(snap).diagnostics
        restored = MetadataProvider(
            schema, name="mdp", db=snap, durable_delivery=True
        )
        assert restored.document_count() == mdp.document_count()
        # The restored node's streams continue past the snapshot.
        assert restored.outbox_watermark("lmr") == mdp.outbox_watermark("lmr")
        restored.delete_document(document_uri(0))
        assert restored.document_count() == mdp.document_count() - 1


class TestCatchUpFromSnapshot:
    def test_blank_lmr_catches_up_to_live_state(self, schema):
        mdp, live = populated_provider(schema)
        snap = mdp.snapshot()
        # Post-snapshot traffic the fresh LMR must replay, not miss.
        mdp.register_document(benchmark_document(7, synth_value=9))
        mdp.register_document(
            benchmark_document(1, synth_value=8)  # update across threshold
        )

        fresh = LocalMetadataRepository("lmr", mdp)
        cached = fresh.catch_up_from_snapshot(snap)
        assert cached > 0
        assert cache_image(fresh) == cache_image(live)
        # The snapshot prefix was skipped, never re-applied: no batch
        # arrived twice.
        assert fresh.dedup.duplicates_ignored == 0
        snap.close()

    def test_catch_up_with_no_post_snapshot_traffic(self, schema):
        mdp, live = populated_provider(schema)
        snap = mdp.snapshot()
        fresh = LocalMetadataRepository("lmr", mdp)
        fresh.catch_up_from_snapshot(snap)
        assert cache_image(fresh) == cache_image(live)
        assert fresh.dedup.duplicates_ignored == 0
        snap.close()
