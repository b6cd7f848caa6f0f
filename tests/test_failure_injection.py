"""Failure-injection tests: faults must be survivable, state must stay sound.

Local failures (storage, bad input) still surface immediately; *network*
failures are recovered from — the reliable delivery layer retries,
dead-letters and resynchronizes until the system converges to the state
a fault-free run would have produced.
"""

import pytest

from repro.errors import MDVError, StorageError, SubscriptionError
from repro.mdv.backbone import Backbone
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.net.bus import NetworkBus
from repro.net.faults import FaultPlan, LinkFaults
from repro.rdf.model import Document, URIRef
from repro.workload.differential import chaos_failures, run_chaos


def make_doc(index, memory=92):
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", "a.uni-passau.de")
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", 600)
    return doc


class TestBusFailures:
    def test_handler_exception_propagates(self):
        bus = NetworkBus()

        def broken(message):
            raise RuntimeError("handler crash")

        bus.register("broken", broken)
        with pytest.raises(RuntimeError):
            bus.send("a", "broken", "x", None)
        # The message was still accounted (it did travel).
        assert bus.total_messages == 1

    def test_subscriber_crash_dead_letters_instead_of_propagating(
        self, schema
    ):
        """A crashing subscriber no longer fails the publisher.

        The batch is poison (the receiver rejected it), so it moves to
        the dead-letter queue; the registration itself succeeds and the
        MDP keeps serving everyone else.
        """
        bus = NetworkBus()
        mdp = MetadataProvider(schema, name="mdp", bus=bus)
        lmr = LocalMetadataRepository("lmr", mdp, bus=bus)
        lmr.subscribe(
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )

        def broken(batch):
            raise RuntimeError("cache corrupted")

        lmr.apply_batch = broken  # simulate a crashing LMR
        bus.register("lmr", lmr._handle_message)
        mdp.register_document(make_doc(1))
        assert mdp.document_count() == 1
        assert mdp.outbox is not None
        assert mdp.outbox.dead_count("lmr") == 1
        (letter,) = mdp.outbox.dead_letters
        assert letter.poison
        assert "cache corrupted" in letter.error


class TestTransactionalSoundness:
    def test_failed_update_leaves_filter_state_intact(self, schema):
        """A crash mid-update must roll the whole three-pass back."""
        mdp = MetadataProvider(schema)
        mdp.connect_subscriber("lmr", lambda batch: None)
        mdp.subscribe(
            "lmr",
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64",
        )
        doc = make_doc(1, memory=92)
        mdp.register_document(doc)
        matches_before = mdp.engine.current_matches(
            mdp.registry.subscriptions_of("lmr")[0].end_rule
        )

        engine = mdp.engine
        original_run = engine.run
        calls = {"count": 0}

        def exploding_run(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 3:  # blow up in pass 3
                raise StorageError("disk on fire")
            return original_run(*args, **kwargs)

        engine.run = exploding_run
        from repro.rdf.diff import diff_documents

        updated = doc.copy()
        updated.get("doc1.rdf#info").set("memory", 16)
        with pytest.raises(StorageError):
            engine.process_diff(diff_documents(doc, updated))
        engine.run = original_run

        # The transaction rolled back: old state fully intact.
        end_rule = mdp.registry.subscriptions_of("lmr")[0].end_rule
        assert engine.current_matches(end_rule) == matches_before
        atoms = mdp.db.count(
            "filter_data", "uri_reference = ?", ("doc1.rdf#info",)
        )
        assert atoms == 3  # identity + memory + cpu, old version

        # And the system keeps working afterwards.
        outcome = engine.process_diff(diff_documents(doc, updated))
        assert outcome.unmatched


class TestInvalidInputs:
    def test_closed_database_raises_storage_error(self, schema):
        mdp = MetadataProvider(schema)
        mdp.db.close()
        with pytest.raises(StorageError):
            mdp.register_document(make_doc(1))

    def test_bad_rule_text_leaves_no_partial_subscription(self, schema):
        mdp = MetadataProvider(schema)
        mdp.connect_subscriber("lmr", lambda batch: None)
        with pytest.raises(MDVError):
            mdp.subscribe("lmr", "search Unicorn u register u")
        assert mdp.registry.subscriptions_of("lmr") == []
        assert mdp.registry.atom_count() == 0

    def test_or_rule_partial_registration_conflict(self, schema):
        """Subscribing the same or-rule twice fails cleanly."""
        mdp = MetadataProvider(schema)
        mdp.connect_subscriber("lmr", lambda batch: None)
        rule = (
            "search CycleProvider c register c "
            "where c.synthValue > 1 or c.synthValue < 0"
        )
        mdp.subscribe("lmr", rule)
        with pytest.raises(SubscriptionError):
            mdp.subscribe("lmr", rule)

    def test_unparseable_xml_rejected_without_state_change(self, schema):
        from repro.errors import DocumentParseError

        mdp = MetadataProvider(schema)
        with pytest.raises(DocumentParseError):
            mdp.register_document("<rdf:RDF", document_uri="x.rdf")
        assert mdp.document_count() == 0


def _three_tier(schema, plan=None):
    """Backbone of two MDPs with one LMR each, over one faulty bus."""
    bus = NetworkBus(fault_plan=plan)
    backbone = Backbone(schema, bus=bus)
    backbone.add_provider("mdp-a")
    backbone.add_provider("mdp-b")
    lmr_a = LocalMetadataRepository("lmr-a", backbone.provider("mdp-a"),
                                    bus=bus)
    lmr_b = LocalMetadataRepository("lmr-b", backbone.provider("mdp-b"),
                                    bus=bus)
    return bus, backbone, lmr_a, lmr_b


RULE = ("search CycleProvider c register c "
        "where c.serverHost contains 'passau'")


class TestPartitionRecovery:
    def test_partitioned_backbone_tracks_lag_and_recovers(self, schema):
        plan = FaultPlan(seed=3)
        bus, backbone, lmr_a, lmr_b = _three_tier(schema, plan)
        lmr_b.subscribe(RULE)
        plan.partition({"mdp-a"}, {"mdp-b"})
        backbone.register_document(make_doc(1), at="mdp-a")
        # The registration committed locally; replication is lagging.
        assert backbone.provider("mdp-a").document_count() == 1
        assert backbone.provider("mdp-b").document_count() == 0
        assert not backbone.is_synchronized()
        assert backbone.replication_lag() >= 1
        lag = backbone.lag_report()["mdp-a->mdp-b"]
        assert lag["pending"] + lag["dead"] >= 1
        assert lag["last_error"] is not None
        plan.heal()
        backbone.recover()
        assert backbone.is_synchronized()
        assert backbone.provider("mdp-b").document_count() == 1
        # The peer's own subscribers got the change after the heal.
        assert "doc1.rdf#host" in lmr_b.cache

    def test_query_during_partition_served_stale_not_raising(self, schema):
        plan = FaultPlan(seed=5)
        bus, backbone, lmr_a, lmr_b = _three_tier(schema, plan)
        lmr_a.subscribe(RULE)
        backbone.register_document(make_doc(1), at="mdp-a")
        assert "doc1.rdf#host" in lmr_a.cache
        plan.partition({"lmr-a"}, {"mdp-a", "mdp-b"})
        result = lmr_a.query_with_status("search CycleProvider c")
        assert result.stale
        assert [str(r.uri) for r in result] == ["doc1.rdf#host"]
        plan.heal()
        fresh = lmr_a.query_with_status("search CycleProvider c")
        assert not fresh.stale

    def test_crashed_lmr_resyncs_after_restart(self, schema):
        plan = FaultPlan(seed=11)
        bus, backbone, lmr_a, lmr_b = _three_tier(schema, plan)
        lmr_a.subscribe(RULE)
        plan.crash("lmr-a")
        backbone.register_document(make_doc(1), at="mdp-a")
        backbone.register_document(make_doc(2), at="mdp-a")
        assert "doc1.rdf#host" not in lmr_a.cache
        plan.restart("lmr-a")
        lmr_a.resync()
        mdp_a = backbone.provider("mdp-a")
        assert mdp_a.outbox is not None
        mdp_a.outbox.drain()
        assert "doc1.rdf#host" in lmr_a.cache
        assert "doc2.rdf#host" in lmr_a.cache
        # Nothing was applied twice.
        assert (lmr_a.batches_received - lmr_a.dedup.applied
                == lmr_a.dedup.duplicates_ignored)

    def test_duplicated_notifications_applied_exactly_once(self, schema):
        plan = FaultPlan(seed=2)
        plan.set_link_faults(
            "mdp-a", "lmr-a", LinkFaults(duplicate_rate=1.0), symmetric=False
        )
        bus, backbone, lmr_a, lmr_b = _three_tier(schema, plan)
        lmr_a.subscribe(RULE)
        backbone.register_document(make_doc(1), at="mdp-a")
        assert "doc1.rdf#host" in lmr_a.cache
        assert lmr_a.dedup.duplicates_ignored >= 1
        assert (lmr_a.batches_received - lmr_a.dedup.applied
                == lmr_a.dedup.duplicates_ignored)
        assert bus.links[("mdp-a", "lmr-a")].duplicated >= 1

    def test_conflicting_partition_writes_converge_last_writer_wins(
        self, schema
    ):
        """Cross-site writes to one document during a partition resolve
        deterministically by the (counter, origin) version order."""
        plan = FaultPlan(seed=7)
        bus, backbone, lmr_a, lmr_b = _three_tier(schema, plan)
        backbone.register_document(make_doc(1, memory=92), at="mdp-a")
        assert backbone.is_synchronized()
        plan.partition({"mdp-a"}, {"mdp-b"})
        backbone.register_document(make_doc(1, memory=128), at="mdp-a")
        backbone.register_document(make_doc(1, memory=256), at="mdp-b")
        plan.heal()
        backbone.recover()
        assert backbone.is_synchronized()
        # Both wrote version counter 2; "mdp-b" wins the origin tiebreak.
        values = {
            name: provider.resource("doc1.rdf#info").get_one("memory").value
            for name, provider in backbone.providers.items()
        }
        assert values == {"mdp-a": 256, "mdp-b": 256}


class TestSeededChaos:
    """The acceptance contract: faulty runs converge to the clean run."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_chaos_converges_to_fault_free_fixpoint(self, seed):
        # Faults were injected, a read during the partition was served
        # stale, every MDP and LMR cache equals the fault-free run's and
        # the LMR caches the single-MDP reference's, the backbone
        # resynchronized and nothing was applied twice.
        assert chaos_failures(seed) == []

    def test_clean_scenario_reports_no_faults(self):
        clean = run_chaos(1, faulty=False)
        assert clean.faults_injected == 0
        assert clean.duplicates_ignored == 0
        assert clean.synchronized
        assert clean.failures == []
