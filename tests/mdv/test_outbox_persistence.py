"""Durable-outbox persistence: store roundtrips, redelivery across a
process restart, redrive of persisted dead letters, durable dedup."""

import os
import pickle

from repro.errors import NetworkError
from repro.mdv.outbox import DedupIndex, Outbox, OutboxStore, RetryPolicy
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.workload.documents import benchmark_document
from repro.workload.rules import comp_rule


class RecordingTransport:
    def __init__(self):
        self.calls = []
        self.down = False

    def __call__(self, destination, kind, payload):
        if self.down:
            raise NetworkError(f"link to {destination} down")
        self.calls.append((destination, kind, payload))


class TestOutboxStore:
    def test_record_watermarks_undelivered_roundtrip(self):
        db = Database()
        create_all(db)
        store = OutboxStore(db)
        outbox = Outbox("src", RecordingTransport(), store=store)
        outbox.enqueue("dst", "note", {"n": 1})
        outbox.enqueue("dst", "note", {"n": 2})
        outbox.enqueue("other", "note", {"n": 3})
        assert store.watermarks() == {"dst": 2, "other": 1}
        assert len(store.undelivered()) == 3
        store.mark_delivered("dst", 1)
        left = store.undelivered()
        assert [(e.destination, e.seq) for e in left] == [
            ("dst", 2), ("other", 1),
        ]
        # Payloads survive the pickle roundtrip intact.
        assert left[0].payload == {"n": 2}
        db.close()

    def test_a_batch_sized_payload_stays_in_its_page(self):
        """A pickled notification batch is about 1.3 KB.  A WITHOUT
        ROWID b-tree keeps only about 1 KB of a row in its page, so
        there each entry took an overflow page of its own; a rowid
        table packs about three entries into one leaf page."""
        db = Database()
        create_all(db)
        outbox = Outbox("src", RecordingTransport(), store=OutboxStore(db))
        payload = "x" * 1290
        assert 1280 <= len(pickle.dumps(payload)) <= 1320
        before = db.scalar("PRAGMA page_count")
        for __ in range(200):
            outbox.enqueue("dst", "notifications", payload)
        grown = db.scalar("PRAGMA page_count") - before
        assert grown <= 0.5 * 200
        db.close()

    def test_entries_since_filters_by_destination_and_seq(self):
        db = Database()
        create_all(db)
        store = OutboxStore(db)
        outbox = Outbox("src", RecordingTransport(), store=store)
        for n in range(4):
            outbox.enqueue("dst", "note", n)
        entries = store.entries_since("dst", 2)
        assert [e.seq for e in entries] == [3, 4]
        assert store.entries_since("missing", 0) == []
        db.close()

    def test_stored_outbox_keeps_no_delivered_history_in_memory(self):
        db = Database()
        create_all(db)
        transport = RecordingTransport()
        outbox = Outbox("src", transport, store=OutboxStore(db))
        for n in range(100):
            outbox.enqueue("lmr", "note", n)
        assert outbox.flush() == 100
        # The store is the replay source; payloads are not held twice.
        assert outbox._history == {}
        assert outbox.replay_since("lmr", 0) == 100
        assert outbox.pending_count("lmr") == 100
        transport.calls.clear()
        outbox.flush()
        assert [payload for _, _, payload in transport.calls] == list(
            range(100)
        )
        db.close()


class TestRestartRecovery:
    def test_recover_resumes_watermarks_and_tail(self, tmp_path):
        path = os.fspath(tmp_path / "node.db")
        db = Database(path)
        create_all(db)
        transport = RecordingTransport()
        outbox = Outbox("src", transport, store=OutboxStore(db))
        for n in (1, 2, 3):
            outbox.enqueue("dst", "note", n)
        outbox.flush()
        assert len(transport.calls) == 3
        # Two more enqueued but never flushed: the process "dies" here.
        outbox.enqueue("dst", "note", 4)
        outbox.enqueue("dst", "note", 5)
        db.close()

        db2 = Database(path)
        transport2 = RecordingTransport()
        restarted = Outbox("src", transport2, store=OutboxStore(db2))
        assert restarted.recover() == 2
        # Sequence numbers resume past everything persisted.
        assert restarted.reserve_seq("dst") == 6
        restarted.flush()
        assert [payload for _, _, payload in transport2.calls] == [4, 5]
        db2.close()

    def test_replay_since_works_across_process_restart(self, tmp_path):
        path = os.fspath(tmp_path / "node.db")
        db = Database(path)
        create_all(db)
        outbox = Outbox("src", RecordingTransport(), store=OutboxStore(db))
        for n in (1, 2, 3):
            outbox.enqueue("dst", "note", n)
        outbox.flush()  # acknowledged history now lives only in SQLite
        db.close()

        db2 = Database(path)
        transport = RecordingTransport()
        restarted = Outbox("src", transport, store=OutboxStore(db2))
        restarted.recover()
        assert restarted.replay_since("dst", 1) == 2
        restarted.flush()
        assert [payload for _, _, payload in transport.calls] == [2, 3]
        db2.close()

    def test_dead_letter_redrive_after_restart_outage(self, tmp_path):
        path = os.fspath(tmp_path / "node.db")
        db = Database(path)
        create_all(db)
        transport = RecordingTransport()
        transport.down = True
        outbox = Outbox(
            "src", transport, store=OutboxStore(db),
            policy=RetryPolicy(max_attempts=2, jitter_ms=0.0),
        )
        outbox.enqueue("dst", "note", "a")
        outbox.enqueue("dst", "note", "b")
        outbox.drain()
        assert outbox.dead_count("dst") == 2
        assert outbox.pending_count("dst") == 0
        # The link heals: redrive unparks and delivers in seq order.
        transport.down = False
        assert outbox.redrive("dst") == 2
        assert outbox.drain() == 2
        assert [payload for _, _, payload in transport.calls] == ["a", "b"]
        # Delivery marks persisted: a restarted node re-enqueues nothing.
        db.close()
        db2 = Database(path)
        restarted = Outbox(
            "src", RecordingTransport(), store=OutboxStore(db2)
        )
        assert restarted.recover() == 0
        db2.close()


class TestDurableDedup:
    def test_dedup_reloads_from_store(self):
        db = Database()
        create_all(db)
        index = DedupIndex(db)
        assert index.check_and_record("src", 1) is True
        assert index.check_and_record("src", 2) is True
        # A "restarted" receiver constructs a fresh index on the same db.
        reborn = DedupIndex(db)
        assert reborn.check_and_record("src", 1) is False
        assert reborn.check_and_record("src", 3) is True
        assert reborn.highest("src") == 3
        db.close()

    def test_prime_sets_a_floor(self):
        index = DedupIndex()
        index.prime("src", 5)
        assert index.check_and_record("src", 4) is False
        assert index.check_and_record("src", 6) is True
        assert index.highest("src") == 6
        assert index.watermarks() == {"src": 6}


class TestDurableProviderRestart:
    def test_restarted_provider_resumes_seq_stream(self, schema):
        mdp = MetadataProvider(schema, name="mdp", durable_delivery=True)
        lmr = LocalMetadataRepository("lmr", mdp)
        lmr.subscribe(comp_rule(2))
        mdp.register_document(benchmark_document(0, synth_value=5))
        high = mdp.outbox_watermark("lmr")
        assert high >= 1

        # New provider "process" on the same store.
        restarted = MetadataProvider(
            schema, name="mdp", db=mdp.db, durable_delivery=True
        )
        lmr.reattach(restarted)
        restarted.register_document(benchmark_document(1, synth_value=7))
        assert restarted.outbox_watermark("lmr") > high
        # The dedup index applied every batch exactly once.
        assert lmr.dedup.duplicates_ignored == 0
        assert len(lmr.cache.resources()) >= 2
