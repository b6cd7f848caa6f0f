"""Unit tests for the startup RecoveryManager (docs/DURABILITY.md)."""

from repro.mdv.provider import MetadataProvider
from repro.mdv.recovery import RecoveryManager
from repro.obs import default_registry
from repro.workload.documents import benchmark_document
from repro.workload.rules import comp_rule, con_rule, con_token


def make_provider(schema):
    mdp = MetadataProvider(schema, name="mdp")
    mdp.subscribe("lmr", comp_rule(3))
    mdp.subscribe("lmr", con_rule(1))
    token = con_token(1)
    for index in range(4):
        host = f"host{index}.{token}.example.org" if index % 2 else None
        mdp.register_document(
            benchmark_document(index, synth_value=index * 2, server_host=host)
        )
    return mdp


class TestCleanStore:
    def test_clean_store_needs_no_repairs(self, schema):
        mdp = make_provider(schema)
        report = RecoveryManager(mdp.db, schema).recover()
        assert report.clean
        assert report.repaired == 0
        assert not report.findings_before

    def test_scratch_rows_are_not_repairs(self, schema):
        mdp = make_provider(schema)
        # Residue of an interrupted filter run: routine, not damage.
        mdp.db.execute(
            "INSERT INTO filter_input (uri_reference, class, property, "
            "value) VALUES ('x', 'C', 'p', 'v')"
        )
        mdp.db.commit()
        report = RecoveryManager(mdp.db, schema).recover()
        assert report.scratch_rows >= 1
        assert report.repaired == 0
        assert mdp.db.count("filter_input") == 0

    def test_recovery_counters(self, schema):
        mdp = make_provider(schema)
        registry = default_registry()
        RecoveryManager(mdp.db, schema).recover()
        assert registry.counter("recovery.runs").value == 1
        assert registry.counter("recovery.findings_after").value == 0


class TestTornStoreRepairs:
    def test_refcount_drift_repaired(self, schema):
        mdp = make_provider(schema)
        mdp.db.execute(
            "UPDATE atomic_rules SET refcount = refcount + 3 "
            "WHERE rule_id = (SELECT MIN(rule_id) FROM atomic_rules)"
        )
        mdp.db.commit()
        report = RecoveryManager(mdp.db, schema).recover()
        assert report.findings_before
        assert report.repairs["refcounts"] == 1
        assert report.clean

    def test_deleted_filter_data_rebuilt_from_xml(self, schema):
        mdp = make_provider(schema)
        before = mdp.db.count("filter_data")
        mdp.db.execute(
            "DELETE FROM filter_data WHERE uri_reference LIKE 'doc1.rdf%'"
        )
        mdp.db.commit()
        report = RecoveryManager(mdp.db, schema).recover()
        assert report.repairs["filter_data_documents"] >= 1
        assert report.clean
        assert mdp.db.count("filter_data") == before

    def test_stranded_atom_tree_collected(self, schema):
        mdp = make_provider(schema)
        # Simulate a crash between subscription teardown steps: the
        # subscription row vanishes but its rules/atoms stay behind.
        row = mdp.db.query_one("SELECT MIN(sub_id) AS s FROM subscriptions")
        mdp.db.execute(
            "DELETE FROM subscriptions WHERE sub_id = ?", (row["s"],)
        )
        mdp.db.commit()
        atoms_before = mdp.db.count("atomic_rules")
        report = RecoveryManager(mdp.db, schema).recover()
        # The ON DELETE CASCADE takes the subscription_rules rows with
        # it; what remains is refcount drift plus an unreachable tree.
        assert report.repairs["refcounts"] >= 1
        assert report.repairs["dead_atoms"] >= 1
        assert report.clean
        assert mdp.db.count("atomic_rules") < atoms_before

    def test_second_pass_is_idempotent(self, schema):
        mdp = make_provider(schema)
        mdp.db.execute(
            "DELETE FROM filter_data WHERE uri_reference LIKE 'doc1.rdf%'"
        )
        mdp.db.execute(
            "UPDATE atomic_rules SET refcount = refcount + 1 "
            "WHERE rule_id = (SELECT MIN(rule_id) FROM atomic_rules)"
        )
        mdp.db.commit()
        first = RecoveryManager(mdp.db, schema).recover()
        assert first.repaired > 0
        second = RecoveryManager(mdp.db, schema).recover()
        assert second.repaired == 0
        assert second.clean

    def test_audit_only_mode_repairs_nothing(self, schema):
        mdp = make_provider(schema)
        mdp.db.execute(
            "UPDATE atomic_rules SET refcount = refcount + 1 "
            "WHERE rule_id = (SELECT MIN(rule_id) FROM atomic_rules)"
        )
        mdp.db.commit()
        report = RecoveryManager(mdp.db, schema).recover(repair=False)
        assert report.findings_before
        assert report.findings_after  # nothing was fixed
        assert report.repaired == 0


class TestProviderIntegration:
    def test_auto_recovery_on_startup(self, schema):
        mdp = make_provider(schema)
        mdp.db.execute(
            "UPDATE atomic_rules SET refcount = refcount + 2 "
            "WHERE rule_id = (SELECT MIN(rule_id) FROM atomic_rules)"
        )
        mdp.db.commit()
        restarted = MetadataProvider(
            schema, name="mdp2", db=mdp.db, recovery="auto"
        )
        assert restarted.last_recovery is not None
        assert restarted.last_recovery.repaired >= 1
        assert restarted.last_recovery.clean

    def test_recovery_off_by_default(self, schema):
        mdp = make_provider(schema)
        restarted = MetadataProvider(schema, name="mdp2", db=mdp.db)
        assert restarted.last_recovery is None

    def test_report_summary_mentions_repairs(self, schema):
        mdp = make_provider(schema)
        mdp.db.execute(
            "UPDATE atomic_rules SET refcount = refcount + 2 "
            "WHERE rule_id = (SELECT MIN(rule_id) FROM atomic_rules)"
        )
        mdp.db.commit()
        report = RecoveryManager(mdp.db, schema).recover()
        assert "refcounts=1" in report.summary()
